// Multi-process live rack: N OS processes, one rack node each, talking over
// shared-memory rings or UDS/TCP sockets — the cross-process transports from
// runtime/fabric.h — then a merged consistency-checker verdict.
//
//   $ ./multiproc_rack                         # 4 ranks over shm
//   $ ./multiproc_rack --transport=socket      # 4 ranks over UDS
//   $ ./multiproc_rack --nodes=8 --ops=50000 --consistency=sc --epochs --drift
//   $ ./multiproc_rack --trace=/tmp/rack.json --trace-sample=8   # per-op traces
//   $ ./multiproc_rack --l1=256 --l1-policy=clock   # node-private L1 tails
//
// This process becomes rank 0: RunRankedRack (runtime/multiproc.h) forks
// ranks 1..N-1, runs its own node, and collects every rank's artifact; the
// example then merges the recorded histories into one and runs the full
// per-key SC/Lin checkers over the merged run.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/runtime/live_rack.h"
#include "src/runtime/multiproc.h"
#include "src/runtime/tracing.h"

using namespace cckvs;

int main(int argc, char** argv) {
  int nodes = 4;
  std::uint64_t ops = 20'000;
  std::string transport = "shm";
  std::string consistency = "lin";
  bool epochs = false;
  bool drift = false;
  std::string trace_path;
  std::uint64_t trace_sample = 64;
  std::uint64_t l1_capacity = 0;
  L1Policy l1_policy = L1Policy::kLru;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--nodes=")) {
      nodes = std::atoi(v);
    } else if (const char* v = value("--ops=")) {
      ops = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--transport=")) {
      transport = v;
    } else if (const char* v = value("--consistency=")) {
      consistency = v;
    } else if (arg == "--epochs") {
      epochs = true;
    } else if (arg == "--drift") {
      drift = true;
    } else if (const char* v = value("--trace=")) {
      trace_path = v;
    } else if (const char* v = value("--trace-sample=")) {
      trace_sample = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--l1=")) {
      l1_capacity = std::strcmp(v, "off") == 0 ? 0
                    : std::strcmp(v, "on") == 0
                        ? 256
                        : std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--l1-policy=")) {
      if (!ParseL1Policy(v, &l1_policy)) {
        std::fprintf(stderr, "--l1-policy must be lru, clock or lfu\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  LiveRackParams params;
  params.num_nodes = nodes;
  params.ops_per_node = ops;
  params.consistency =
      consistency == "sc" ? ConsistencyModel::kSc : ConsistencyModel::kLin;
  params.workload.keyspace = 8'192;
  params.workload.write_ratio = 0.20;
  params.workload.value_bytes = 24;
  params.cache_capacity = 128;
  params.window_per_node = 4;
  params.record_history = true;
  if (epochs) {
    params.online_topk = true;
    params.topk_epoch_requests = 10'000;
  }
  if (drift) {
    params.workload.drift_period_ops = 10'000;
    params.workload.drift_rank_shift = 16;
  }
  if (l1_capacity > 0) {
    // Every forked rank runs the L1.  A slice of per-node rank skew gives
    // each process a private warm tail worth caching; the merged checker
    // verdict below must stay clean exactly as without the tier — that IS
    // the demo.
    params.l1_capacity = l1_capacity;
    params.l1_policy = l1_policy;
    params.workload.node_rank_stride = params.workload.keyspace / 16;
  }
  // Every rank writes PATH.rank<N>; rank 0 merges them below.
  params.trace_path = trace_path;
  params.trace_sample = trace_sample;
  if (!ParseTransportKind(transport, &params.transport.kind) ||
      params.transport.kind == TransportKind::kInproc) {
    std::fprintf(stderr, "--transport must be shm or socket\n");
    return 2;
  }
  // Per-run namespaces so concurrent racks on one host cannot collide.
  const std::string run_id = std::to_string(static_cast<long>(getpid()));
  params.transport.shm_name = "/cckvs_mp_" + run_id;
  params.transport.socket_path_base = "/tmp/cckvs_mp_" + run_id;

  std::printf("multiproc rack: %d ranks over %s, %llu ops/rank, %s%s%s", nodes,
              transport.c_str(), static_cast<unsigned long long>(ops),
              consistency.c_str(), epochs ? ", online epochs" : "",
              drift ? ", drift" : "");
  if (l1_capacity > 0) {
    std::printf(", L1 %llu/%s", static_cast<unsigned long long>(l1_capacity),
                ToString(l1_policy));
  }
  std::printf("\n");

  RankedRun run = RunRankedRack(params);
  if (!run.error.empty()) {
    std::fprintf(stderr, "%s\n", run.error.c_str());
  }
  if (!run.report.ok()) {
    std::fprintf(stderr, "rank 0 transport error: %s\n",
                 run.report.transport_error.c_str());
  }
  if (!run.report.trace_error.empty()) {
    // Diagnostic only: a failed trace export never fails the rank.
    std::fprintf(stderr, "rank 0 trace export: %s\n", run.report.trace_error.c_str());
  }

  // Merge every rank's history and certify the whole multi-process run.
  History merged;
  std::uint64_t completed = 0;
  std::uint64_t rpcs = 0;
  for (RankArtifacts& a : run.ranks) {
    completed += a.completed;
    rpcs += a.rpcs_sent;
    for (HistoryOp& op : a.history) {
      merged.Record(std::move(op));
    }
  }

  std::printf("  completed %llu ops (%llu served over RPC), merged history: %zu ops\n",
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(rpcs), merged.size());

  if (!trace_path.empty()) {
    // Stitch the per-rank span files into one Chrome trace: ranks share the
    // TSC and the clock epoch, so events line up; RPC spans from different
    // ranks join by trace id.
    std::vector<std::string> rank_traces;
    rank_traces.reserve(static_cast<std::size_t>(nodes));
    for (int rank = 0; rank < nodes; ++rank) {
      rank_traces.push_back(trace_path + ".rank" + std::to_string(rank));
    }
    std::string error;
    if (MergeChromeTraces(rank_traces, trace_path, &error)) {
      std::printf("  trace: merged %d rank files into %s\n", nodes,
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "  trace merge failed: %s\n", error.c_str());
    }
  }

  if (!run.error.empty() || !run.report.ok()) {
    std::printf("  FAILED: at least one rank failed\n");
    return 1;
  }

  const std::string verdict = params.consistency == ConsistencyModel::kLin
                                  ? merged.CheckPerKeyLinearizability()
                                  : merged.CheckPerKeySequentialConsistency();
  const std::string atomicity = merged.CheckWriteAtomicity();
  if (!verdict.empty() || !atomicity.empty()) {
    std::printf("  CONSISTENCY VIOLATION: %s%s\n", verdict.c_str(),
                atomicity.c_str());
    return 1;
  }
  std::printf("  checkers: per-key %s OK, write atomicity OK\n",
              consistency.c_str());
  return 0;
}
