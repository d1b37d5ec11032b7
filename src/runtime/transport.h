// Live-rack transport: credit backpressure + per-peer message coalescing
// (runtime/coalescer.h) over a pluggable delivery fabric (runtime/fabric.h).
//
// Each node owns an Endpoint.  The endpoint implements the consistency
// engines' MessageSink on the send side and exposes a Poll() pump on the
// receive side, so the exact ScEngine/LinEngine production code runs on real
// threads — or real processes — with no changes: the engine still sees a
// single-threaded host (only the owning node's thread calls into it; peers
// only deliver through the fabric).
//
// Fabric traffic is per-batch: outgoing messages append to per-peer
// WireBatch buffers in the SendCoalescer and ship as one Deliver() when a
// flush policy fires (size cap, the host's op-boundary flushes — after each
// poll that handled messages and at the end of each pump iteration — or the
// pre-sleep idle backstop) — the live analogue of §8.5's header
// amortization.  With Config::coalescing off the same path runs with batch
// size 1.  Per-peer FIFO order — the invalidation-then-update order the Lin
// protocol relies on, and the lanes the hot-set install barrier rides — is
// preserved across batch boundaries: batches close in append order, and
// every fabric lane is FIFO (that is the fabric contract, conformance-tested
// per backend).
//
// Flow control stays per-MESSAGE and mirrors §6.3/§6.4 via the simulator's
// own primitives (src/rdma/flow_control.h):
//
//  * Broadcast traffic (updates, invalidations, epoch messages) spends
//    explicit per-peer credits from a CreditPool before entering a batch.
//    With no credit — or with earlier messages already parked — the message
//    queues in a per-peer FIFO ahead of the coalescer, preserving send
//    order.  Receivers count every credited message and return credits in
//    batches (CreditUpdateBatcher); the return rides the fabric's credit
//    path — an atomic add in-process, a credit frame on the wire.
//  * Acks, RPC request/response pairs, and termination control messages ride
//    implicit credits: each is bounded by what it answers (invalidations,
//    the requester's session window, one probe per round), so they bypass
//    the pool — exactly the sim's RackNode::SendAck.
//
// Termination counts are per-MESSAGE too: data_sent() counts a message when
// it enters an open batch, data_processed() when its handler has run, and
// neither counts Term* control.  The counting protocol (control_messages.h)
// balances them across endpoints, so batching cannot change when a rack may
// stop, and no rack-global counter is touched per message.

#ifndef CCKVS_RUNTIME_TRANSPORT_H_
#define CCKVS_RUNTIME_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/histogram.h"
#include "src/protocol/engine.h"
#include "src/protocol/messages.h"
#include "src/rdma/flow_control.h"
#include "src/runtime/coalescer.h"
#include "src/runtime/fabric.h"
#include "src/topk/hot_set_messages.h"

namespace cckvs {

class LiveTransport {
 public:
  struct Config {
    int num_nodes = 0;
    int bcast_credits_per_peer = 64;
    int credit_update_batch = 8;
    // Per-node inbound bound; LiveRack sizes this from credits + window so
    // that delivery never blocks.  Counts batches, which the message bound
    // dominates (every batch carries at least one message).
    std::size_t channel_capacity = 4096;
    // §8.5 on the live fabric: batch same-destination messages into shared
    // fabric deliveries.  Off = batch size 1 through the same code path.
    bool coalescing = false;
    int coalesce_max_batch = 16;
    // Deadline-based flush, mirroring the sim's coalesce_window_ns: when > 0,
    // op-boundary flushes hold sub-cap batches until they have been open this
    // many microseconds (size-cap flushes still fire immediately), trading
    // bounded extra latency for fatter batches.  The pre-sleep path flushes
    // expired batches and caps the sleep to the earliest open deadline, so no
    // message is ever held past deadline + one wakeup.
    std::uint64_t coalesce_flush_deadline_us = 0;
    // Monotonic clock for the deadline policy; tests inject a fake.  Defaults
    // to steady_clock when a deadline is set.
    std::function<std::uint64_t()> clock_ns;
    // Stock the fabric's WireBatchPool with this many fully-warm batches
    // (coalesce_max_batch slots, prewarm_value_bytes of string capacity each)
    // at construction.  0 = start cold and warm up through use — fine for
    // correctness (warm-up is one-time per slot), required off for tests that
    // count pool behaviour.  LiveRack sets it for track_allocs runs so the
    // measured window starts past all first-touch allocations.
    std::size_t prewarm_batches = 0;
    std::size_t prewarm_value_bytes = 0;
    // Which fabric carries the batches (inproc | shm | socket), and — for
    // ranked multi-process racks — which endpoint this process owns.
    TransportOptions transport;
  };

  class Endpoint final : public MessageSink {
   public:
    Endpoint(LiveTransport* transport, NodeId self);

    // --- MessageSink (owning node's thread only) ---
    void BroadcastUpdate(const UpdateMsg& msg) override;
    void BroadcastInvalidate(const InvalidateMsg& msg) override;
    void SendAck(NodeId to, const AckMsg& msg) override;

    // --- epoch traffic (owning node's thread only; credited) ---
    void BroadcastHotSet(const HotSetAnnounceMsg& msg);
    void BroadcastFill(const FillMsg& msg);
    void BroadcastEpochInstalled(const EpochInstalledMsg& msg);

    // Uncredited point-to-point send (RPC request/response): bounded by what
    // it answers, so it bypasses the credit pool like an ack — but still
    // coalesces.  Owning node's thread only.
    void SendDirect(NodeId to, WireBody body);

    // Termination control (Term* messages): uncredited like SendDirect, typed
    // (slot-reusing, allocation-free), never counted in data_sent().
    template <typename T>
    void SendControl(NodeId to, const T& msg) {
      static_assert(kIsTermControl<T>);
      EnqueueTyped(to, msg);
    }

    // Drains up to `max_batches` inbound batches, invoking
    // handler(NodeId src, const WireBody&) for each message after the
    // receive-side run demux (consecutive same-key updates collapse to the
    // newest; see coalescer.h), and does the per-message credit and
    // termination accounting.  Owning node's thread only.  Returns the number
    // of messages processed.
    template <typename Handler>
    std::size_t Poll(std::size_t max_batches, Handler&& handler) {
      scratch_.clear();
      fabric().Drain(self_, &scratch_, max_batches);
      UpdateRunDemux demux(&updates_collapsed_);
      std::size_t processed = 0;
      for (const WireBatch& batch : scratch_) {
        for (const WireBody& body : batch) {
          demux.OnMessage(batch.src, body, handler);
          if (IsCredited(body) && batcher_.OnReceived(batch.src)) {
            // Return a credit batch to the sender (header-only message in the
            // paper; an atomic add or credit frame in the fabric).
            fabric().ReturnCredits(self_, batch.src, batcher_.batch());
            ++credit_returns_;
          }
          if (!IsTermControl(body)) {
            ++data_processed_;
          }
          ++processed;
        }
      }
      demux.Flush(handler);  // demux holds pointers into scratch_: flush first
      for (WireBatch& batch : scratch_) {
        fabric().batch_pool().Recycle(std::move(batch));
      }
      messages_received_ += processed;
      return processed;
    }

    // Ships every open batch (the host's op-boundary flush, or a test's
    // explicit policy).  A kBoundary flush holds sub-cap batches younger than
    // coalesce_flush_deadline_us unless `hold_young` is false, as it must be
    // for a node leaving its run loop.  Owning node's thread only.
    void FlushBatches(FlushCause cause, bool hold_young = true);

    // Retries credit-parked broadcasts after harvesting returned credits.
    void FlushPending();

    // True when every peer has at least one broadcast credit (the SC write
    // throttle point, as in RackNode::AllPeersHaveBcastCredit).
    bool AllPeersHaveCredit();

    // Broadcast credits available toward `peer` after harvesting the ones it
    // has returned.  Credit returns land asynchronously on some backends, so
    // a caller waiting for the whole pool must poll this.
    int AvailableCredits(NodeId peer);

    // True when no broadcast is parked waiting for credits and no message
    // sits in an open batch.
    bool NothingPending() const;

    // Sleeps until a batch arrives or `timeout` elapses (idle backoff).
    // Always flushes open batches first (the idle backstop; deadline-held
    // batches ship once expired), so no message can sleep inside a batch
    // buffer.  The run loop's op-boundary flush normally ships everything
    // first, so an idle flush firing (flushes_idle > 0) means a host skipped
    // its boundary flushes.
    void WaitForTraffic(std::chrono::microseconds timeout);

    // The busy-poll counterpart of WaitForTraffic's pre-sleep flush: applies
    // the same deadline/idle backstop policy WITHOUT sleeping.  A busy-poll
    // run loop never parks, so without this call a sub-cap batch held under
    // coalesce_flush_deadline_us would only ship at the next boundary flush
    // with traffic — or never, on an idle node.  Cheap when nothing is open.
    void PollExpiredDeadlines();

    std::uint64_t messages_received() const { return messages_received_; }
    std::uint64_t batches_received() const { return fabric().stats(self_).pushes; }
    std::uint64_t full_waits() const { return fabric().stats(self_).full_waits; }
    std::uint64_t wakeups() const { return fabric().stats(self_).wakeups; }
    std::uint64_t credit_parks() const { return credit_parks_; }
    std::uint64_t updates_sent() const { return updates_sent_; }
    std::uint64_t invalidations_sent() const { return invalidations_sent_; }
    std::uint64_t acks_sent() const { return acks_sent_; }
    std::uint64_t credit_returns() const { return credit_returns_; }
    std::uint64_t epoch_msgs_sent() const { return epoch_msgs_sent_; }
    std::uint64_t updates_collapsed() const { return updates_collapsed_; }
    // Termination-protocol counters: data (non-Term*) messages this endpoint
    // committed to delivery / finished processing (control_messages.h).
    std::uint64_t data_sent() const { return data_sent_; }
    std::uint64_t data_processed() const { return data_processed_; }
    const SendCoalescer& coalescer() const { return coalescer_; }
    // Arms batch-residence tracing on the send coalescer (runtime/tracing.h).
    // Call before the owning node's thread starts; null disarms.
    void set_tracer(Tracer* tracer) { coalescer_.set_tracer(tracer); }

   private:
    friend class LiveTransport;

    TransportFabric& fabric() const { return *transport_->fabric_; }
    void SendCredited(NodeId to, WireBody body);
    void HarvestCredits(NodeId peer);
    // Commits one data message to delivery: counts it in data_sent(), appends
    // it to the peer's open batch, and ships the batch if it hit the size cap.
    void Enqueue(NodeId to, WireBody body);
    void DeliverBatch(NodeId to, WireBatch batch);
    template <typename T>
    void BroadcastCredited(const T& msg, std::uint64_t* counter);

    // Typed Enqueue: assigns the message into a recycled batch slot instead
    // of constructing a WireBody temporary — the zero-alloc fast path for
    // every steady-state send.
    template <typename T>
    void EnqueueTyped(NodeId to, const T& msg) {
      if constexpr (!kIsTermControl<T>) {
        ++data_sent_;
      }
      if (coalescer_.AppendTyped(to, msg)) {
        DeliverBatch(to, coalescer_.Take(to, FlushCause::kSize));
      }
    }

    // Typed SendCredited: same credit protocol as the WireBody overload; only
    // the (rare) credit-parked path still materializes a WireBody.
    template <typename T>
    void SendCreditedTyped(NodeId to, const T& msg) {
      HarvestCredits(to);
      if (!pending_[to].empty() || !bcast_credits_.TryAcquire(to)) {
        ++credit_parks_;
        pending_[to].push_back(WireBody{msg});
        return;
      }
      EnqueueTyped(to, msg);
    }

    LiveTransport* transport_;
    NodeId self_;
    SendCoalescer coalescer_;
    CreditPool bcast_credits_;      // sender side, per peer
    CreditUpdateBatcher batcher_;   // receiver side, per peer
    std::vector<std::deque<WireBody>> pending_;  // per peer, FIFO
    std::vector<WireBatch> scratch_;             // Poll() drain buffer
    std::uint64_t credit_parks_ = 0;
    std::uint64_t updates_sent_ = 0;
    std::uint64_t invalidations_sent_ = 0;
    std::uint64_t acks_sent_ = 0;
    std::uint64_t credit_returns_ = 0;
    std::uint64_t epoch_msgs_sent_ = 0;
    std::uint64_t messages_received_ = 0;
    std::uint64_t updates_collapsed_ = 0;
    std::uint64_t data_sent_ = 0;
    std::uint64_t data_processed_ = 0;
  };

  // Builds the fabric named by config.transport.  On fabric failure (connect
  // refused, shm attach timeout) the transport constructs EMPTY — ok() is
  // false, init_error() says why, and no endpoints exist — so callers can
  // surface a clean report error instead of aborting.
  explicit LiveTransport(const Config& config);
  ~LiveTransport();

  bool ok() const { return fabric_ != nullptr; }
  const std::string& init_error() const { return init_error_; }

  // In ranked mode only the local rank's endpoint exists.
  Endpoint& endpoint(NodeId id) { return *endpoints_[id]; }
  bool has_endpoint(NodeId id) const {
    return id < endpoints_.size() && endpoints_[id] != nullptr;
  }
  const Config& config() const { return config_; }

  TransportFabric& fabric() { return *fabric_; }
  const TransportFabric& fabric() const { return *fabric_; }

 private:
  Config config_;
  std::unique_ptr<TransportFabric> fabric_;
  std::string init_error_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_TRANSPORT_H_
