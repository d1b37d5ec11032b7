#include "src/runtime/profiler.h"

#include <cerrno>
#include <chrono>
#include <cstring>

#include "src/common/check.h"

namespace cckvs {

void WorkerCounters::Store(const LiveCounters& c) {
#define CCKVS_STORE(name, kind, total) name.store(c.name, std::memory_order_relaxed);
  CCKVS_LIVE_COUNTERS(CCKVS_STORE)
#undef CCKVS_STORE
}

LiveCounters WorkerCounters::Load() const {
  LiveCounters c;
#define CCKVS_LOAD(name, kind, total) c.name = name.load(std::memory_order_relaxed);
  CCKVS_LIVE_COUNTERS(CCKVS_LOAD)
#undef CCKVS_LOAD
  return c;
}

const char* ProfilerCsvHeader() {
#define CCKVS_COLUMN(name, kind, total) "," #name
  return "ts_ms,node" CCKVS_LIVE_COUNTERS(CCKVS_COLUMN);
#undef CCKVS_COLUMN
}

Profiler::Profiler(const Options& options, const std::vector<WorkerCounters>* counters,
                   int first_node)
    : options_(options), counters_(counters), first_node_(first_node) {
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
    if (csv_ == nullptr) {
      // The run proceeds with in-memory samples only.
      csv_error_ = "cannot open " + options_.csv_path + ": " + std::strerror(errno);
    }
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
    const LiveCounters totals = (*counters_)[i].Load();
    LiveCounters& prev = prev_[i];
    ProfilerSample delta{totals, ts_ms, first_node_ + static_cast<int>(i)};
#define CCKVS_DELTA(name, kind, total)           \
  if (CounterKind::kind == CounterKind::kFlow) { \
    delta.name = totals.name - prev.name;        \
  }
    CCKVS_LIVE_COUNTERS(CCKVS_DELTA)
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
#define CCKVS_FORMAT(name, kind, total) ",%llu"
#define CCKVS_VALUE(name, kind, total) , static_cast<unsigned long long>(s.name)
  std::fprintf(csv_, "%llu,%d" CCKVS_LIVE_COUNTERS(CCKVS_FORMAT) "\n",
               static_cast<unsigned long long>(s.ts_ms),
               s.node CCKVS_LIVE_COUNTERS(CCKVS_VALUE));
#undef CCKVS_VALUE
#undef CCKVS_FORMAT
}

}  // namespace cckvs
