// Shared helpers for the figure/table benches.
//
// Every bench binary regenerates one table or figure of the paper: it runs the
// rack simulator (or the analytical model) at the paper's parameters and prints
// the same rows/series the paper reports.  Absolute numbers come from a
// simulator, so EXPERIMENTS.md compares shapes (orderings, ratios, crossovers)
// rather than testbed-specific magnitudes.

// Every binary accepts:
//   --smoke        tiny simulation windows — seconds instead of minutes; CI's
//                  bench-smoke job uses this to keep every figure runnable on
//                  every PR
//   --json=PATH    write each run's RackReport (plus its labelled params) to
//                  PATH at exit, so runs diff PR-to-PR.  The file is an object
//                  {"meta": {...}, "entries": [...]}: `meta` embeds the git
//                  sha, build type, binary name and smoke flag so uploaded
//                  artifacts are attributable and diffable across PRs
//                  (tools/bench_delta.py consumes this shape).
// Env fallbacks CCKVS_BENCH_SMOKE=1 / CCKVS_BENCH_JSON=PATH work when argv is
// inconvenient (wrapper scripts).

#ifndef CCKVS_BENCH_BENCH_UTIL_H_
#define CCKVS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/cckvs/rack.h"
#include "src/cckvs/report_util.h"
#include "src/runtime/live_rack.h"
#include "src/runtime/report.h"

namespace cckvs {
namespace bench {

// Build-time identity, injected by CMake so every JSON artifact records what
// produced it.
#ifndef CCKVS_GIT_SHA
#define CCKVS_GIT_SHA "unknown"
#endif
#ifndef CCKVS_BUILD_TYPE
#define CCKVS_BUILD_TYPE "unknown"
#endif

struct BenchFlags {
  bool smoke = false;
  std::string json_path;
};

struct JsonEntry {
  std::string label;
  std::vector<std::pair<std::string, double>> fields;
};

struct BenchState {
  BenchFlags flags;
  std::string binary_name;
  std::vector<JsonEntry> entries;
};

inline BenchState& State() {
  static BenchState state;
  return state;
}

inline bool Smoke() { return State().flags.smoke; }

// Records one labelled result row for the JSON artifact.
inline void RecordEntry(std::string label,
                        std::vector<std::pair<std::string, double>> fields) {
  if (!State().flags.json_path.empty()) {
    State().entries.push_back(JsonEntry{std::move(label), std::move(fields)});
  }
}

inline void WriteJson() {
  BenchState& state = State();
  if (state.flags.json_path.empty()) {
    return;
  }
  std::FILE* f = std::fopen(state.flags.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", state.flags.json_path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"meta\": {\"git_sha\": \"%s\", \"build_type\": \"%s\", "
               "\"binary\": \"%s\", \"smoke\": %s},\n  \"entries\": [\n",
               CCKVS_GIT_SHA, CCKVS_BUILD_TYPE, state.binary_name.c_str(),
               state.flags.smoke ? "true" : "false");
  for (std::size_t i = 0; i < state.entries.size(); ++i) {
    const JsonEntry& e = state.entries[i];
    std::fprintf(f, "    {\"label\": \"%s\"", e.label.c_str());
    for (const auto& [name, value] : e.fields) {
      std::fprintf(f, ", \"%s\": %.17g", name.c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 < state.entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

// Call first in every bench main().  Parses flags and registers the JSON
// writer to run at exit (after the bench's normal table output).
inline void Init(int argc, char** argv) {
  BenchFlags& flags = State().flags;
  if (argc > 0 && argv[0] != nullptr) {
    const std::string path = argv[0];
    const std::size_t slash = path.find_last_of('/');
    State().binary_name = slash == std::string::npos ? path : path.substr(slash + 1);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      flags.smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      flags.json_path = argv[i] + 7;
    }
  }
  if (const char* env = std::getenv("CCKVS_BENCH_SMOKE");
      env != nullptr && env[0] != '\0' && env[0] != '0') {
    flags.smoke = true;
  }
  if (const char* env = std::getenv("CCKVS_BENCH_JSON");
      env != nullptr && flags.json_path.empty()) {
    flags.json_path = env;
  }
  std::atexit(WriteJson);
}

// Human-readable label of a rack configuration, for JSON rows.
inline std::string LabelOf(const RackParams& p) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s%s%s n=%d alpha=%.2f wr=%.2f vb=%u",
                ToString(p.kind),
                p.kind == SystemKind::kCcKvs ? "/" : "",
                p.kind == SystemKind::kCcKvs ? ToString(p.consistency) : "",
                p.num_nodes, p.workload.zipf_alpha, p.workload.write_ratio,
                p.workload.value_bytes);
  return buf;
}

// The paper's default rack: 9 nodes, 250M keys, 0.1% symmetric cache, 40B
// values, alpha = 0.99 (§7.2).
inline RackParams PaperRack(SystemKind kind,
                            ConsistencyModel model = ConsistencyModel::kSc) {
  RackParams p;
  p.kind = kind;
  p.consistency = model;
  p.num_nodes = 9;
  p.workload.keyspace = 250'000'000;
  p.workload.zipf_alpha = 0.99;
  p.workload.write_ratio = 0.0;
  p.workload.value_bytes = 40;
  p.cache_capacity = 250'000;
  p.seed = 42;
  return p;
}

// Uniform = Base under alpha = 0 (§7.1).
inline RackParams UniformRack() {
  RackParams p = PaperRack(SystemKind::kBase);
  p.workload.zipf_alpha = 0.0;
  return p;
}

struct RunWindows {
  SimTime measure_ns = 250'000;
  SimTime warmup_ns = 150'000;
};

// Base-EREW needs a long warmup: its hot-core queue fills slowly before the
// system settles into the hot-core-bound steady state.  ccKVS runs with writes
// need a long measurement window: hot-key write bursts and credit dynamics make
// short windows noisy.  Under --smoke everything shrinks to a fixed tiny
// window: shapes get noisy, but every binary finishes in seconds and still
// exercises its full code path.
inline RunWindows WindowsFor(const RackParams& p) {
  RunWindows w;
  if (Smoke()) {
    w.measure_ns = 60'000;
    w.warmup_ns = 30'000;
    return w;
  }
  if (p.kind == SystemKind::kBaseErew) {
    w.warmup_ns = 3'000'000;
    w.measure_ns = 500'000;
  } else if (p.kind == SystemKind::kCcKvs && p.workload.write_ratio > 0.0) {
    w.warmup_ns = 300'000;
    w.measure_ns = 1'000'000;
  }
  return w;
}

inline RackReport RunRack(const RackParams& p, SimTime measure_ns, SimTime warmup_ns,
                          const char* label_detail = nullptr) {
  RackSimulation rack(p);
  if (Smoke()) {
    const RunWindows w = WindowsFor(p);
    measure_ns = w.measure_ns;
    warmup_ns = w.warmup_ns;
  }
  const RackReport report = rack.Run(measure_ns, warmup_ns);
  std::string label = LabelOf(p);
  if (label_detail != nullptr) {
    label += ' ';
    label += label_detail;
  }
  RecordEntry(std::move(label), ReportFields(report));
  return report;
}

inline RackReport RunRack(const RackParams& p, const char* label_detail = nullptr) {
  const RunWindows w = WindowsFor(p);
  return RunRack(p, w.measure_ns, w.warmup_ns, label_detail);
}

// Flat field view of a LiveReport: the shared RackReport fields plus the
// live-only observables, for the same JSON artifacts.  Every counter of the
// CCKVS_LIVE_COUNTERS table with a run total is in it, by its table name.
inline std::vector<std::pair<std::string, double>> LiveReportFields(
    const LiveReport& r) {
  auto fields = ReportFields(r.rack);  // the `rack` counters, and completed
#define CCKVS_JSON_FIELD(name, kind, total)                        \
  if (std::string_view(#name) != "completed") {                    \
    CCKVS_BY_TOTAL_##total(fields.emplace_back(#name, r.name);, ) \
  }
  CCKVS_LIVE_COUNTERS(CCKVS_JSON_FIELD)
#undef CCKVS_JSON_FIELD
  fields.emplace_back("wall_seconds", r.wall_seconds);
  fields.emplace_back("avg_batch_size",
                      r.batch_sizes.count() == 0 ? 0.0 : r.batch_sizes.Mean());
  fields.emplace_back("p99_batch_size", r.batch_sizes.P99());
  fields.emplace_back("store_read_retries", r.store_read_retries);
  fields.emplace_back("spans_recorded", r.spans_recorded);
  fields.emplace_back("spans_dropped", r.spans_dropped);
  return fields;
}

// Runs a live rack and records its report under `label` (+ optional detail).
inline LiveReport RunLive(const LiveRackParams& p, const std::string& label) {
  LiveRack rack(p);
  LiveReport r = rack.Run();
  RecordEntry(label, LiveReportFields(r));
  return r;
}

// The live counterpart of the fig13 coalescing sections: a config whose
// channel traffic is broadcast-heavy enough for batching to matter (§8.5's
// live analogue batches consistency messages — live misses are direct shard
// loads and never touch the channels).
inline LiveRackParams LiveCoalescingRack(ConsistencyModel model, bool coalescing,
                                         std::uint64_t ops_per_node) {
  LiveRackParams p;
  p.num_nodes = 8;
  p.consistency = model;
  p.workload.keyspace = 1'000'000;
  p.workload.zipf_alpha = 0.99;
  p.workload.write_ratio = 0.05;
  p.workload.value_bytes = 40;
  p.cache_capacity = 1'000;  // 0.1% of the dataset, as in §7.1
  p.window_per_node = 32;    // deep closed-loop window: fat op-boundary batches
  p.ops_per_node = ops_per_node;
  p.coalescing = coalescing;
  p.seed = 42;
  return p;
}

inline void PrintHeaderRule() {
  std::printf("------------------------------------------------------------------------\n");
}

}  // namespace bench
}  // namespace cckvs

#endif  // CCKVS_BENCH_BENCH_UTIL_H_
