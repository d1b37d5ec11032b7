#include "src/runtime/coalescer.h"

#include <algorithm>
#include <array>
#include <limits>

#include "src/common/check.h"
#include "src/common/cycles.h"
#include "src/runtime/tracing.h"

namespace cckvs {
namespace {

// The calling thread's magazine (see WireBatchPool): a fixed array, so the
// magazine itself never allocates.  Live batches are [0, count); the older
// half spills first, keeping the most recently recycled (cache-warm) ones.
struct Magazine {
  std::array<WireBatch, 2 * WireBatchPool::kMagazine> batches;
  std::size_t count = 0;
};

thread_local Magazine t_magazine;

}  // namespace

WireBatch WireBatchPool::Acquire() {
  Magazine& m = t_magazine;
  if (m.count == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    while (m.count < kMagazine && !free_.empty()) {
      m.batches[m.count++] = std::move(free_.back());
      free_.pop_back();
    }
  }
  if (m.count == 0) {
    return WireBatch{};
  }
  return std::move(m.batches[--m.count]);
}

void WireBatchPool::Recycle(WireBatch&& batch) {
  batch.clear();
  Magazine& m = t_magazine;
  if (m.count == m.batches.size()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < kMagazine; ++i) {
      if (free_.size() < cap_) {
        free_.push_back(std::move(m.batches[i]));
      }  // else over the cap: the shift below frees it
      m.batches[i] = std::move(m.batches[i + kMagazine]);
    }
    m.count = kMagazine;
  }
  m.batches[m.count++] = std::move(batch);
}

void WireBatchPool::Prewarm(std::size_t count, std::size_t slots,
                            std::size_t value_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  cap_ = std::max(cap_, count);
  free_.reserve(cap_);
  while (free_.size() < count) {
    WireBatch b;
    b.Warm(slots, value_bytes);
    free_.push_back(std::move(b));
  }
}

std::size_t WireBatchPool::shared_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_.size();
}

std::size_t WireBatchPool::cap() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cap_;
}

SendCoalescer::SendCoalescer(const CoalescerConfig& config)
    : config_(config),
      effective_max_(config.enabled ? config.max_batch : 1),
      open_(static_cast<std::size_t>(config.num_peers)),
      open_since_ns_(static_cast<std::size_t>(config.num_peers), 0),
      open_cycles_(static_cast<std::size_t>(config.num_peers), 0) {
  CCKVS_CHECK_GE(config.num_peers, 1);
  CCKVS_CHECK_GE(effective_max_, 1);
  if (config_.flush_deadline_ns > 0) {
    CCKVS_CHECK(config_.now_ns != nullptr);
  }
  for (WireBatch& b : open_) {
    b.src = config_.self;
    if (config_.warm_slots > 0) {
      b.Warm(config_.warm_slots, config_.warm_value_bytes);
    }
  }
}

void SendCoalescer::StampOpen(NodeId to) {
  if (deadline_enabled()) {
    open_since_ns_[to] = config_.now_ns();
  }
  if (tracer_ != nullptr) {
    open_cycles_[to] = CycleNow();
  }
}

bool SendCoalescer::Append(NodeId to, WireBody body) {
  CCKVS_DCHECK(to != config_.self);
  WireBatch& batch = open_[to];
  if (batch.empty()) {
    StampOpen(to);
  }
  batch.Append(std::move(body));
  return batch.size() >= static_cast<std::size_t>(effective_max_);
}

bool SendCoalescer::DeadlineExpired(NodeId to) const {
  if (!deadline_enabled() || open_[to].empty()) {
    return false;
  }
  return DeadlineExpired(to, config_.now_ns());
}

bool SendCoalescer::DeadlineExpired(NodeId to, std::uint64_t now) const {
  if (!deadline_enabled() || open_[to].empty()) {
    return false;
  }
  return now - open_since_ns_[to] >= config_.flush_deadline_ns;
}

std::uint64_t SendCoalescer::MinRemainingNs() const {
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  if (!deadline_enabled()) {
    return best;
  }
  const std::uint64_t now = config_.now_ns();
  for (std::size_t to = 0; to < open_.size(); ++to) {
    if (open_[to].empty()) {
      continue;
    }
    const std::uint64_t age = now - open_since_ns_[to];
    best = std::min(best, age >= config_.flush_deadline_ns
                              ? 0
                              : config_.flush_deadline_ns - age);
  }
  return best;
}

WireBatch SendCoalescer::Take(NodeId to, FlushCause cause) {
  WireBatch& open = open_[to];
  if (open.empty()) {
    WireBatch taken;  // empty takes are free and unrecorded, as before
    taken.src = config_.self;
    return taken;
  }
  // Swap the full batch out against a recycled (or fresh) one, so the open
  // slot's warmed capacity leaves with the taken batch and a previously
  // recycled batch's capacity becomes the new open buffer.
  WireBatch taken = config_.pool != nullptr ? config_.pool->Acquire() : WireBatch{};
  taken.clear();
  std::swap(taken, open);
  open.src = config_.self;
  ++batches_sent_;
  messages_sent_ += taken.size();
  ++flushes_[static_cast<std::size_t>(cause)];
  batch_sizes_.Record(taken.size());
  if (tracer_ != nullptr && tracer_->SampleAux()) {
    // Batch residence: how long the first message sat in the open batch
    // before the flush shipped it (the Fig 13c latency the deadline knob
    // trades against).  arg0 = destination peer, arg1 = messages shipped.
    tracer_->Emit(SpanKind::kBatchOpen, 0, tracer_->NewSpanId(), 0,
                  open_cycles_[to], CycleNow(), to, taken.size());
  }
  return taken;
}

bool SendCoalescer::AllEmpty() const {
  for (const WireBatch& b : open_) {
    if (!b.empty()) {
      return false;
    }
  }
  return true;
}

std::size_t SendCoalescer::open_messages() const {
  std::size_t n = 0;
  for (const WireBatch& b : open_) {
    n += b.size();
  }
  return n;
}

}  // namespace cckvs
