#include "src/runtime/transport.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "src/common/check.h"
#include "src/runtime/wire_codec.h"

namespace cckvs {
namespace {

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

CoalescerConfig MakeCoalescerConfig(const LiveTransport::Config& c, NodeId self,
                                    WireBatchPool* pool) {
  CoalescerConfig cc;
  cc.self = self;
  cc.num_peers = c.num_nodes;
  cc.enabled = c.coalescing;
  cc.max_batch = c.coalesce_max_batch;
  if (c.coalescing && c.coalesce_flush_deadline_us > 0) {
    cc.flush_deadline_ns = c.coalesce_flush_deadline_us * 1000;
    cc.now_ns = c.clock_ns != nullptr ? c.clock_ns : SteadyNowNs;
  }
  cc.pool = pool;
  if (c.prewarm_batches > 0) {
    cc.warm_slots = static_cast<std::size_t>(c.coalesce_max_batch);
    cc.warm_value_bytes = c.prewarm_value_bytes;
  }
  return cc;
}

// Encoded size of a full warm batch: max_batch updates carrying
// `value_bytes` each (WireBatch::Warm's slot shape).
std::size_t WarmFrameBytes(int max_batch, std::size_t value_bytes) {
  WireBatch batch;
  for (int i = 0; i < max_batch; ++i) {
    batch.Append(UpdateMsg{0, Value(value_bytes, '\0'), Timestamp{}});
  }
  Buffer buf;
  SerializeWireBatch(batch, &buf);
  return buf.size();
}

}  // namespace

LiveTransport::LiveTransport(const Config& config) : config_(config) {
  CCKVS_CHECK_GE(config.num_nodes, 2);
  // Stranded-credit bound: a receiver holds back at most batch-1 credits per
  // peer, so the pool must be strictly larger or senders can park forever.
  CCKVS_CHECK_GT(config.bcast_credits_per_peer, config.credit_update_batch);
  CCKVS_CHECK_GE(config.coalesce_max_batch, 1);
  FabricConfig fc;
  fc.num_nodes = config.num_nodes;
  fc.channel_capacity = config.channel_capacity;
  fabric_ = MakeFabric(fc, config.transport, &init_error_);
  if (fabric_ == nullptr) {
    return;  // ok() == false; init_error_ says why
  }
  if (config.prewarm_batches > 0) {
    fabric_->batch_pool().Prewarm(
        config.prewarm_batches,
        static_cast<std::size_t>(config.coalesce_max_batch),
        config.prewarm_value_bytes);
    fabric_->ReserveScratch(
        WarmFrameBytes(config.coalesce_max_batch, config.prewarm_value_bytes));
  }
  endpoints_.resize(static_cast<std::size_t>(config.num_nodes));
  const int rank = config.transport.rank;
  for (int i = 0; i < config.num_nodes; ++i) {
    if (rank >= 0 && i != rank) {
      continue;  // ranked: peers live in other processes
    }
    endpoints_[static_cast<std::size_t>(i)] =
        std::make_unique<Endpoint>(this, static_cast<NodeId>(i));
  }
}

LiveTransport::~LiveTransport() {
  if (fabric_ != nullptr) {
    fabric_->Shutdown();  // stop rx machinery before endpoints die
  }
}

LiveTransport::Endpoint::Endpoint(LiveTransport* transport, NodeId self)
    : transport_(transport),
      self_(self),
      coalescer_(MakeCoalescerConfig(transport->config_, self,
                                     &transport->fabric_->batch_pool())),
      bcast_credits_(transport->config_.num_nodes,
                     transport->config_.bcast_credits_per_peer),
      batcher_(transport->config_.num_nodes, transport->config_.credit_update_batch),
      pending_(static_cast<std::size_t>(transport->config_.num_nodes)) {
  // One Drain() can hand back at most a full ring of batches; reserving the
  // drain buffer up front keeps Poll() allocation-free no matter how inbound
  // bursts line up with the measured window.
  scratch_.reserve(transport->config_.channel_capacity);
}

void LiveTransport::Endpoint::Enqueue(NodeId to, WireBody body) {
  // A message waiting in an open batch is already sent: it is past credit
  // accounting and committed to delivery.  (Term* control never comes this
  // way: SendControl takes the typed path.)
  ++data_sent_;
  if (coalescer_.Append(to, std::move(body))) {
    DeliverBatch(to, coalescer_.Take(to, FlushCause::kSize));
  }
}

void LiveTransport::Endpoint::DeliverBatch(NodeId to, WireBatch batch) {
  if (batch.empty()) {
    return;
  }
  fabric().Deliver(to, std::move(batch));
}

void LiveTransport::Endpoint::FlushBatches(FlushCause cause, bool hold_young) {
  const bool by_deadline = hold_young && cause == FlushCause::kBoundary &&
                           coalescer_.deadline_enabled();
  // One clock read per flush pass, not one per peer: this runs every
  // run-loop iteration on the hot path.
  const std::uint64_t now = by_deadline ? coalescer_.now_ns() : 0;
  for (int j = 0; j < transport_->config_.num_nodes; ++j) {
    const auto to = static_cast<NodeId>(j);
    if (j == self_ || coalescer_.empty(to)) {
      continue;
    }
    if (by_deadline) {
      // Deadline policy: the op boundary only ships batches that have been
      // held long enough; younger sub-cap batches keep accumulating.
      if (!coalescer_.DeadlineExpired(to, now)) {
        continue;
      }
      DeliverBatch(to, coalescer_.Take(to, FlushCause::kDeadline));
      continue;
    }
    DeliverBatch(to, coalescer_.Take(to, cause));
  }
}

void LiveTransport::Endpoint::HarvestCredits(NodeId peer) {
  const int n = fabric().TakeReturnedCredits(self_, peer);
  if (n > 0) {
    bcast_credits_.Release(peer, n);
  }
}

template <typename T>
void LiveTransport::Endpoint::BroadcastCredited(const T& msg,
                                                std::uint64_t* counter) {
  for (int j = 0; j < transport_->config_.num_nodes; ++j) {
    if (j != self_) {
      SendCreditedTyped(static_cast<NodeId>(j), msg);
      ++*counter;
    }
  }
}

void LiveTransport::Endpoint::BroadcastUpdate(const UpdateMsg& msg) {
  BroadcastCredited(msg, &updates_sent_);
}

void LiveTransport::Endpoint::BroadcastInvalidate(const InvalidateMsg& msg) {
  BroadcastCredited(msg, &invalidations_sent_);
}

void LiveTransport::Endpoint::BroadcastHotSet(const HotSetAnnounceMsg& msg) {
  BroadcastCredited(msg, &epoch_msgs_sent_);
}

void LiveTransport::Endpoint::BroadcastFill(const FillMsg& msg) {
  BroadcastCredited(msg, &epoch_msgs_sent_);
}

void LiveTransport::Endpoint::BroadcastEpochInstalled(const EpochInstalledMsg& msg) {
  BroadcastCredited(msg, &epoch_msgs_sent_);
}

void LiveTransport::Endpoint::SendAck(NodeId to, const AckMsg& msg) {
  // Implicit credits: acks answer invalidations one-for-one, so the writer's
  // outstanding invalidations bound them (§6.3) — no pool, no parking.  They
  // still coalesce: an iteration that polled a burst of invalidations ships
  // all its acks to one writer as a single batch.
  EnqueueTyped(to, msg);
  ++acks_sent_;
}

void LiveTransport::Endpoint::SendDirect(NodeId to, WireBody body) {
  Enqueue(to, std::move(body));
}

void LiveTransport::Endpoint::FlushPending() {
  for (int j = 0; j < transport_->config_.num_nodes; ++j) {
    if (j == self_ || pending_[j].empty()) {
      continue;
    }
    HarvestCredits(static_cast<NodeId>(j));
    while (!pending_[j].empty() &&
           bcast_credits_.TryAcquire(static_cast<NodeId>(j))) {
      WireBody body = std::move(pending_[j].front());
      pending_[j].pop_front();
      Enqueue(static_cast<NodeId>(j), std::move(body));
    }
  }
}

bool LiveTransport::Endpoint::AllPeersHaveCredit() {
  for (int j = 0; j < transport_->config_.num_nodes; ++j) {
    if (j != self_ && AvailableCredits(static_cast<NodeId>(j)) == 0) {
      return false;
    }
  }
  return true;
}

int LiveTransport::Endpoint::AvailableCredits(NodeId peer) {
  HarvestCredits(peer);
  return bcast_credits_.available(peer);
}

bool LiveTransport::Endpoint::NothingPending() const {
  for (const auto& q : pending_) {
    if (!q.empty()) {
      return false;
    }
  }
  return coalescer_.AllEmpty();
}

void LiveTransport::Endpoint::PollExpiredDeadlines() {
  if (coalescer_.AllEmpty()) {
    return;
  }
  if (coalescer_.deadline_enabled()) {
    // Boundary+deadline flush: ships exactly the batches whose hold expired
    // (recorded as kDeadline), keeps younger ones accumulating — the same
    // policy the pre-sleep path applies, minus the sleep.
    FlushBatches(FlushCause::kBoundary);
  } else {
    FlushBatches(FlushCause::kIdle);
  }
}

void LiveTransport::Endpoint::WaitForTraffic(std::chrono::microseconds timeout) {
  if (!coalescer_.AllEmpty()) {
    if (coalescer_.deadline_enabled()) {
      // The deadline is itself the backstop: ship what already expired, keep
      // holding the rest — but never sleep past the earliest open deadline,
      // so a held batch is flushed within one wakeup of expiring even on an
      // otherwise idle node.
      FlushBatches(FlushCause::kBoundary);  // boundary+deadline: expired only
      const std::uint64_t remaining = coalescer_.MinRemainingNs();
      if (remaining != std::numeric_limits<std::uint64_t>::max()) {
        const auto cap = std::chrono::microseconds(remaining / 1000 + 1);
        timeout = std::min(timeout, cap);
      }
    } else {
      FlushBatches(FlushCause::kIdle);
    }
  }
  fabric().Wait(self_, timeout);
}

}  // namespace cckvs
