// The driver's three run modes.  Each prints one JSON line (json_line.h) and
// returns the process exit code; benchmark/run.py starts each in its own
// child process.

#ifndef CCKVS_BENCHMARK_DRIVER_LIVE_H_
#define CCKVS_BENCHMARK_DRIVER_LIVE_H_

#include <cstdint>
#include <string>

namespace cckvs::benchmark {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;        // measured time, split evenly over the windows
  int windows = 5;            // untraced runs: one fresh rack per window
  double warmup_seconds = 2;  // discarded rack run before any measured one
  // Unique per run: prefixes the shm object names and the trace file, so
  // concurrent or crashed runs never collide.
  std::string run_id = "cckvs_bench";
  std::string trace_dir = ".";        // where the traced window exports
  std::uint64_t replay_ops = 1'000'000;
  std::uint64_t check_ops_per_node = 200'000;
};

// End-to-end metrics: after the warm-up, `windows` fresh racks, each
// measured for seconds/windows.  Throughput and set-up time are medians over windows;
// latency percentiles come from the merged per-op histograms.
int RunEndToEnd(const RunOptions& options);

// Per-layer metrics: after the warm-up, one untraced window (live counters)
// and one traced window (span statistics and tracing overhead), each
// seconds/2, then the layer replay.
int RunPerLayer(const RunOptions& options);

// Correctness pass: a history-recording run of check_ops_per_node ops per
// node, certified by the per-key SC or Lin checker and write atomicity.
int RunCheck(const RunOptions& options);

}  // namespace cckvs::benchmark

#endif  // CCKVS_BENCHMARK_DRIVER_LIVE_H_
