// Live profiling subsystem (ScaleStore-style counter thread).
//
// Every node thread owns a WorkerCounters block and refreshes it once per
// run-loop iteration with relaxed stores — no locks, no allocation, nothing
// the hot path has to wait for.  A single background Profiler thread samples
// all blocks once per interval, turns the flow counters into per-interval
// deltas (ops/s, messages/s, flush causes) and reads the gauges (hot-path
// allocation count, inbound ring occupancy) as-is, then emits one CSV row per
// node per interval.  The samples are also retained in memory and folded into
// LiveReport, so a bench run gets the full time series, not just totals.
//
// The counters, their kinds (flow or gauge) and the CSV column order are the
// CCKVS_LIVE_COUNTERS table (runtime/live_counters.h).
//
// Threading: node threads are the only writers of their block; the profiler
// thread only loads.  All accesses are relaxed — a sample is a snapshot of
// independently-published counters, not a consistent cut, which is all a
// per-second rate display needs.

#ifndef CCKVS_RUNTIME_PROFILER_H_
#define CCKVS_RUNTIME_PROFILER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/live_counters.h"

namespace cckvs {

// One per node thread.  The owning thread publishes with Store(); the
// profiler thread reads with Load().  Atomics make the struct non-movable, so
// hosts size their vector once up front.
struct WorkerCounters {
#define CCKVS_COUNTER_FIELD(name, kind, total) std::atomic<std::uint64_t> name{0};
  CCKVS_LIVE_COUNTERS(CCKVS_COUNTER_FIELD)
#undef CCKVS_COUNTER_FIELD

  // Out of line, so the node run loop's publish stays a call and does not
  // crowd the hot path out of the loop's inlining budget.
  void Store(const LiveCounters& c);
  LiveCounters Load() const;
};

// One row of the time series: node `node` over the interval ending `ts_ms`
// after profiling started.  Flow fields are interval deltas; gauges verbatim.
struct ProfilerSample : LiveCounters {
  std::uint64_t ts_ms = 0;
  int node = 0;
};

// Header matching ProfilerSample's CSV serialization.
const char* ProfilerCsvHeader();

class Profiler {
 public:
  struct Options {
    std::uint64_t interval_ms = 1000;
    std::string csv_path;  // non-empty: stream rows to this file
  };

  // `counters` must outlive the profiler; (*counters)[i] is node
  // first_node + i's block, and the profiler samples exactly those nodes.
  Profiler(const Options& options, const std::vector<WorkerCounters>* counters,
           int first_node = 0);
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void Start();
  // Takes one final sample (so short runs still produce a row per node),
  // joins the thread and closes the CSV stream.  Idempotent.
  void Stop();

  // The retained time series; stable once Stop() returned.
  const std::vector<ProfilerSample>& samples() const { return samples_; }
  // Why the CSV could not be opened; empty when it was, or none was asked
  // for.  The samples are still kept in memory.  Set by Start().
  const std::string& csv_error() const { return csv_error_; }

 private:
  void Loop();
  void SampleOnce(std::uint64_t ts_ms);
  void Emit(const ProfilerSample& s);

  Options options_;
  const std::vector<WorkerCounters>* counters_;
  int first_node_;
  std::vector<LiveCounters> prev_;  // previous totals, for flow deltas
  std::vector<ProfilerSample> samples_;
  std::FILE* csv_ = nullptr;
  std::string csv_error_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool started_ = false;
  bool stopped_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_PROFILER_H_
