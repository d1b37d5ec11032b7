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
// Counter taxonomy (CCKVS_PROFILER_COUNTERS below marks each counter):
//   flow   — monotonically increasing; the profiler reports interval deltas.
//   gauge  — instantaneous; reported verbatim.  allocs is the operator-new
//            count inside the node's measurement window (see
//            common/alloc_tracker.h); inbound_depth is fabric occupancy
//            (batches for inproc/socket, bytes for shm).
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

namespace cckvs {

// Every per-node counter, declared once as X(name, kind), in CSV column
// order.  kFlow counters are monotonic and reported as interval deltas;
// kGauge counters are instantaneous and reported verbatim.
#define CCKVS_PROFILER_COUNTERS(X) \
  X(ops, kFlow)                    \
  X(hits, kFlow)                   \
  X(misses, kFlow)                 \
  X(rpcs, kFlow)                   \
  X(msgs_sent, kFlow)              \
  X(batches_sent, kFlow)           \
  X(flush_size, kFlow)             \
  X(flush_boundary, kFlow)         \
  X(flush_idle, kFlow)             \
  X(flush_deadline, kFlow)         \
  X(l1_hits, kFlow)                \
  X(l1_invalidations, kFlow)       \
  X(l1_fills, kFlow)               \
  X(allocs, kGauge)                \
  X(inbound_depth, kGauge)

enum class CounterKind { kFlow, kGauge };

// One per node thread.  The owning thread calls Publish-style relaxed stores;
// the profiler thread reads.  Atomics make the struct non-movable, so hosts
// size their vector once up front.
struct WorkerCounters {
#define CCKVS_COUNTER_FIELD(name, kind) std::atomic<std::uint64_t> name{0};
  CCKVS_PROFILER_COUNTERS(CCKVS_COUNTER_FIELD)
#undef CCKVS_COUNTER_FIELD
};

// One row of the time series: node `node` over the interval ending `ts_ms`
// after profiling started.  Flow fields are interval deltas; gauges verbatim.
struct ProfilerSample {
  std::uint64_t ts_ms = 0;
  int node = 0;
#define CCKVS_COUNTER_FIELD(name, kind) std::uint64_t name = 0;
  CCKVS_PROFILER_COUNTERS(CCKVS_COUNTER_FIELD)
#undef CCKVS_COUNTER_FIELD
};

// Header matching ProfilerSample's CSV serialization.
const char* ProfilerCsvHeader();

class Profiler {
 public:
  struct Options {
    std::uint64_t interval_ms = 1000;
    std::string csv_path;  // non-empty: stream rows to this file
  };

  // `counters` must outlive the profiler and hold one block per node.
  Profiler(const Options& options, const std::vector<WorkerCounters>* counters);
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void Start();
  // Takes one final sample (so short runs still produce a row per node),
  // joins the thread and closes the CSV stream.  Idempotent.
  void Stop();

  // The retained time series; stable once Stop() returned.
  const std::vector<ProfilerSample>& samples() const { return samples_; }

 private:
  void Loop();
  void SampleOnce(std::uint64_t ts_ms);
  void Emit(const ProfilerSample& s);

  Options options_;
  const std::vector<WorkerCounters>* counters_;
  std::vector<ProfilerSample> prev_;  // previous totals, for flow deltas
  std::vector<ProfilerSample> samples_;
  std::FILE* csv_ = nullptr;
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
