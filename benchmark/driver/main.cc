// cckvs_benchmark: the compiled half of the repository benchmark.
//
//   cckvs_benchmark e2e|layers|check --workload NAME [--seed N] [--seconds S]
//       [--windows K] [--warmup S] [--run-id ID] [--trace-dir DIR]
//       [--replay-ops N] [--check-ops N]
//
// Each mode prints one JSON line (live.h).  benchmark/run.py builds this
// binary, runs each mode in its own child process under a watchdog, and
// turns the lines into the benchmark's result.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "benchmark/driver/live.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cckvs_benchmark e2e|layers|check --workload NAME [--seed N] "
               "[--seconds S] [--windows K] [--warmup S] [--run-id ID] [--trace-dir DIR] "
               "[--replay-ops N] [--check-ops N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using cckvs::benchmark::RunOptions;
  if (argc < 2) {
    return Usage();
  }
  const std::string mode = argv[1];
  RunOptions o;
  for (int i = 2; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      o.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      o.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--windows") == 0) {
      o.windows = std::atoi(value);
    } else if (std::strcmp(flag, "--warmup") == 0) {
      o.warmup_seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--run-id") == 0) {
      o.run_id = value;
    } else if (std::strcmp(flag, "--trace-dir") == 0) {
      o.trace_dir = value;
    } else if (std::strcmp(flag, "--replay-ops") == 0) {
      o.replay_ops = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--check-ops") == 0) {
      o.check_ops_per_node = std::strtoull(value, nullptr, 10);
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 0 || o.workload.empty() || o.seconds <= 0 || o.windows < 1) {
    return Usage();
  }
  if (mode == "e2e") {
    return cckvs::benchmark::RunEndToEnd(o);
  }
  if (mode == "layers") {
    return cckvs::benchmark::RunPerLayer(o);
  }
  if (mode == "check") {
    return cckvs::benchmark::RunCheck(o);
  }
  return Usage();
}
