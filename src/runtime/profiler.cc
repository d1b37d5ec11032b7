#include "src/runtime/profiler.h"

#include <chrono>

#include "src/common/check.h"

namespace cckvs {
namespace {

ProfilerSample LoadTotals(const WorkerCounters& c, int node, std::uint64_t ts_ms) {
  ProfilerSample s;
  s.ts_ms = ts_ms;
  s.node = node;
#define CCKVS_LOAD(name, kind) s.name = c.name.load(std::memory_order_relaxed);
  CCKVS_PROFILER_COUNTERS(CCKVS_LOAD)
#undef CCKVS_LOAD
  return s;
}

}  // namespace

const char* ProfilerCsvHeader() {
#define CCKVS_COLUMN(name, kind) "," #name
  return "ts_ms,node" CCKVS_PROFILER_COUNTERS(CCKVS_COLUMN);
#undef CCKVS_COLUMN
}

Profiler::Profiler(const Options& options, const std::vector<WorkerCounters>* counters)
    : options_(options), counters_(counters) {
  CCKVS_CHECK(counters_ != nullptr);
  CCKVS_CHECK_GE(options_.interval_ms, 1u);
  prev_.resize(counters_->size());
}

Profiler::~Profiler() { Stop(); }

void Profiler::Start() {
  CCKVS_CHECK(!started_ && "Profiler::Start is single-shot");
  started_ = true;
  start_ = std::chrono::steady_clock::now();
  if (!options_.csv_path.empty()) {
    csv_ = std::fopen(options_.csv_path.c_str(), "w");
    // A bad path degrades to in-memory samples only; the run itself proceeds.
  }
  if (csv_ != nullptr) {
    std::fprintf(csv_, "%s\n", ProfilerCsvHeader());
  }
  thread_ = std::thread([this] { Loop(); });
}

void Profiler::Stop() {
  if (!started_ || stopped_) {
    return;
  }
  stopped_ = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  // Final partial-interval sample: totals since the last tick, so a run
  // shorter than one interval still yields one row per node.
  const auto now = std::chrono::steady_clock::now();
  const auto ts_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now - start_).count());
  SampleOnce(ts_ms);
  if (csv_ != nullptr) {
    std::fclose(csv_);
    csv_ = nullptr;
  }
}

void Profiler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    const bool stopping = cv_.wait_for(
        lock, std::chrono::milliseconds(options_.interval_ms),
        [this] { return stop_requested_; });
    if (stopping) {
      return;  // Stop() takes the final sample after the join
    }
    const auto now = std::chrono::steady_clock::now();
    const auto ts_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(now - start_)
            .count());
    SampleOnce(ts_ms);
  }
}

void Profiler::SampleOnce(std::uint64_t ts_ms) {
  for (std::size_t i = 0; i < counters_->size(); ++i) {
    const ProfilerSample totals =
        LoadTotals((*counters_)[i], static_cast<int>(i), ts_ms);
    ProfilerSample& prev = prev_[i];
    ProfilerSample delta = totals;  // gauges + identity fields carry over
#define CCKVS_DELTA(name, kind)                      \
  if (CounterKind::kind == CounterKind::kFlow) {     \
    delta.name = totals.name - prev.name;            \
  }
    CCKVS_PROFILER_COUNTERS(CCKVS_DELTA)
#undef CCKVS_DELTA
    prev = totals;
    samples_.push_back(delta);
    Emit(delta);
  }
}

void Profiler::Emit(const ProfilerSample& s) {
  if (csv_ == nullptr) {
    return;
  }
#define CCKVS_FORMAT(name, kind) ",%llu"
#define CCKVS_VALUE(name, kind) , static_cast<unsigned long long>(s.name)
  std::fprintf(csv_, "%llu,%d" CCKVS_PROFILER_COUNTERS(CCKVS_FORMAT) "\n",
               static_cast<unsigned long long>(s.ts_ms),
               s.node CCKVS_PROFILER_COUNTERS(CCKVS_VALUE));
#undef CCKVS_VALUE
#undef CCKVS_FORMAT
}

}  // namespace cckvs
