// §5.2 "Verification": exhaustive model checking of the Lin protocol — and of
// the §4 epoch-transition machinery.
//
// The paper expressed its Lin protocol in Murphi and verified safety (the
// single-writer-multiple-reader and data-value invariants) and deadlock freedom
// with 3 processors, 2 addresses and 2-bit timestamps.  This bench runs our
// checker — which explores every interleaving of the *production* LinEngine —
// at and beyond that scale, and prints the explored state-space size.
// (Per-key protocols make keys independent, so one key covers the 2-address
// Murphi configuration; see tests/verify_test.cc.)
//
// The second table extends the method to epoch transitions: announce, fill,
// write-back, gated direct-shard ops and the install barrier, all against the
// production engines + store::Partition + topk::HotSetManager, with the home
// side and the client ops of every node run by cckvs::NodeCore, as in the
// simulator and the live rack.  Zero
// violations and zero deadlocks across every interleaving of one epoch change
// is the §5.2 claim applied to the transition itself.
//
// JSON entries carry a `violations` field (0 on success); tools/bench_delta.py
// flags any nonzero value — or a shrink in states explored — as a hard
// warning, so CI catches both a broken invariant and an accidentally narrowed
// scope.

#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/verify/model_checker.h"

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

void PrintRow(const char* label, const cckvs::ModelCheckerResult& r, double secs) {
  std::printf("%-26s %12llu %14llu %10llu %8llu %8s  (%.1fs)\n", label,
              static_cast<unsigned long long>(r.states_explored),
              static_cast<unsigned long long>(r.transitions),
              static_cast<unsigned long long>(r.terminal_states),
              static_cast<unsigned long long>(r.max_depth), r.ok ? "OK" : "FAIL",
              secs);
}

void Record(const char* label, const cckvs::ModelCheckerResult& r, double secs) {
  cckvs::bench::RecordEntry(
      label, {{"states", static_cast<double>(r.states_explored)},
              {"transitions", static_cast<double>(r.transitions)},
              {"terminals", static_cast<double>(r.terminal_states)},
              {"max_depth", static_cast<double>(r.max_depth)},
              {"violations", r.ok ? 0.0 : 1.0},
              {"seconds", secs}});
}

}  // namespace

int main(int argc, char** argv) {
  cckvs::bench::Init(argc, argv);
  using namespace cckvs;
  std::printf("Section 5.2: exhaustive verification of the Lin protocol\n\n");
  std::printf("%-26s %12s %14s %10s %8s %8s\n", "scope", "states", "transitions",
              "terminals", "depth", "result");

  struct Scope {
    int nodes;
    int writes;
  };
  for (const Scope s : {Scope{2, 2}, Scope{2, 3}, Scope{3, 2}, Scope{3, 3}}) {
    if (bench::Smoke() && s.nodes + s.writes >= 6) {
      continue;  // the 3x3 state space alone dominates the full run
    }
    ModelCheckerConfig cfg;
    cfg.num_nodes = s.nodes;
    cfg.total_writes = s.writes;
    const auto start = std::chrono::steady_clock::now();
    const ModelCheckerResult r = CheckLinProtocol(cfg);
    const double secs = Seconds(start);
    char label[64];
    std::snprintf(label, sizeof(label), "sec52 Lin model check n=%d w=%d", s.nodes,
                  s.writes);
    PrintRow(label, r, secs);
    Record(label, r, secs);
    if (!r.ok) {
      std::printf("  FAILURE: %s\n", r.failure.c_str());
      return 1;
    }
  }

  std::printf("\nEpoch-transition scopes (announce / fill / write-back / gated "
              "ops / barrier):\n\n");
  std::printf("%-26s %12s %14s %10s %8s %8s\n", "scope", "states", "transitions",
              "terminals", "depth", "result");

  struct TScope {
    int nodes;
    ConsistencyModel model;
    int puts;
    int gets;
  };
  for (const TScope s :
       {TScope{2, ConsistencyModel::kLin, 1, 1},
        TScope{2, ConsistencyModel::kSc, 2, 2},
        TScope{2, ConsistencyModel::kLin, 2, 2},
        TScope{3, ConsistencyModel::kSc, 1, 1},
        TScope{3, ConsistencyModel::kLin, 1, 1},
        TScope{3, ConsistencyModel::kLin, 2, 1}}) {
    // Smoke keeps the bounded 2-node scopes (sub-second) so every CI run
    // model-checks the transition machinery; the 3-node scopes are the full
    // run's depth.
    if (bench::Smoke() && s.nodes >= 3) {
      continue;
    }
    TransitionScopeConfig cfg;
    cfg.num_nodes = s.nodes;
    cfg.model = s.model;
    cfg.puts = s.puts;
    cfg.gets = s.gets;
    const auto start = std::chrono::steady_clock::now();
    const ModelCheckerResult r = CheckEpochTransition(cfg);
    const double secs = Seconds(start);
    char label[80];
    std::snprintf(label, sizeof(label), "sec52 transition %s n=%d p=%d g=%d",
                  ToString(s.model), s.nodes, s.puts, s.gets);
    PrintRow(label, r, secs);
    Record(label, r, secs);
    if (!r.ok) {
      std::printf("  FAILURE: %s\n", r.failure.c_str());
      return 1;
    }
  }

  std::printf(
      "\nverified: data-value invariant, per-node timestamp monotonicity\n"
      "(logical-time SWMR), real-time write ordering, deadlock freedom,\n"
      "and convergence at quiescence — on the production LinEngine code;\n"
      "plus, through every epoch-transition interleaving, with client ops\n"
      "on the production op path (NodeCore): per-key linearizability at\n"
      "op completion, gate/barrier settlement, and cache/shard\n"
      "convergence across the hot-set change\n");
  return 0;
}
