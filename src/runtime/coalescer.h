// Message coalescing for the live fabric: the layer between the consistency
// engines and the MPSC channels (the live analogue of §8.5 request
// coalescing, which the simulator models via RackParams::coalescing).
//
// The live rack's channels are mutex-guarded; without coalescing every
// protocol message pays one lock acquisition at the sender and wakes the
// receiver once.  The paper's insight transfers directly: messages to the
// same destination can share a "packet".  Here the packet is a WireBatch —
// one channel push carrying N WireBody messages and a single source id (the
// live analogue of header amortization: the per-message src byte and the
// per-push lock/notify are paid once per batch).
//
// Send side: SendCoalescer keeps one open batch per peer.  Messages append
// in send order, so per-peer FIFO — which the Lin protocol (invalidation
// before its update) and the hot-set install barrier both depend on — is
// preserved across batch boundaries by construction: batches close in append
// order and the channel itself is FIFO.  Three flush policies:
//
//   * kSize      — the open batch reached max_batch (checked on every append);
//   * kBoundary  — the host reached an op boundary: either a poll step that
//                  handled messages (what the poll produced — acks for
//                  polled invalidations, updates for completed write rounds,
//                  RPC responses — ships at once, also between the slices of
//                  an issue round), or the end of a pump iteration
//                  (everything else the iteration produced, such as
//                  updates/invalidations from issued ops), which bounds
//                  message latency to one iteration;
//   * kIdle      — the endpoint is about to sleep in WaitForTraffic; a
//                  backstop so no message can sleep inside an open batch even
//                  if a host forgets its boundary flushes.
//
// With coalescing disabled the same code path runs with an effective
// max_batch of 1: every message closes its own batch, so the uncoalesced
// rack differs only by batch size — which is what makes the on/off benches a
// controlled comparison.
//
// Credit accounting is deliberately NOT batched: credits are acquired per
// message before it enters a batch, and receivers count/return them per
// message (§6.3's bounds are about messages, not packets).  Likewise the
// termination counters (LiveTransport::Endpoint::data_sent/data_processed)
// count messages from the moment they enter an open batch, so when a rack
// may stop does not depend on how its messages were batched.
//
// Receive side: UpdateRunDemux groups consecutive same-key *updates* in the
// drained stream into a run and forwards only the run's maximum-timestamp
// element.  Both engines apply updates iff-newer, and the host's run loop
// issues no client op mid-poll, so collapsing a run is observationally
// equivalent to applying it element by element.  Only updates collapse:
// every invalidation must produce exactly one ack (the writer counts N-1 of
// them) and every ack must be counted, so those always pass through.

#ifndef CCKVS_RUNTIME_COALESCER_H_
#define CCKVS_RUNTIME_COALESCER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"
#include "src/runtime/wire_codec.h"

namespace cckvs {

class Tracer;  // runtime/tracing.h; batch-residence spans are optional

// Free list of warm WireBatches, shared by every endpoint of one fabric.
// Batches cross threads (sender fills, receiver drains, receiver recycles),
// so a recycled batch's warmed slot capacity serves whichever sender next
// acquires it.
//
// The shared list is mutex-guarded, and that mutex is NOT cheap on the
// message path: with four node threads hammering it, one contended
// lock/unlock costs ~300 ns, and a shm batch passes through the pool four
// times (Take's Acquire, Deliver's Recycle, Drain's Acquire, Poll's Recycle).
// So each thread keeps a magazine — a thread-local stack of up to 2 x kMagazine
// warm batches — in front of it, and Acquire/Recycle take the mutex only to
// move kMagazine batches at once (a Bonwick magazine layer).  On shm and
// socket every node thread both acquires and recycles, so the steady state
// never touches the mutex; on inproc batches migrate sender -> receiver and
// each side locks once per kMagazine batches.
//
// The magazine belongs to the thread, not to one pool: batches are fungible,
// so a thread that serves two pools (tests driving two fabrics) just reuses
// whatever warm batch it holds, and no magazine ever points at a pool that
// may already be gone.  Each thread therefore retains at most
// 2 x kMagazine batches beyond the pool's cap, freed at thread exit.
class WireBatchPool {
 public:
  // Batches moved per shared-list refill/spill; a magazine holds 2x this.
  static constexpr std::size_t kMagazine = 16;

  WireBatchPool() { free_.reserve(cap_); }

  WireBatch Acquire();
  void Recycle(WireBatch&& batch);

  // Stocks the shared list with `count` fully-warm batches (WireBatch::Warm)
  // and raises the retention cap to hold them.  Called once at fabric init,
  // before any node thread starts: with `count` at least the transport's
  // maximum simultaneously-circulating batch count plus 2 x kMagazine per
  // thread (what the magazines may hold back), Acquire never hands out a
  // cold batch and the steady state is allocation-free rather than merely
  // amortized-allocation-free.
  void Prewarm(std::size_t count, std::size_t slots, std::size_t value_bytes);

  // Batches on the shared list (never above cap(); the magazines hold the
  // rest).  Observability for tests.
  std::size_t shared_size() const;
  std::size_t cap() const;

 private:
  mutable std::mutex mu_;
  std::size_t cap_ = 1024;  // retention cap: a full rack's churn fits
  std::vector<WireBatch> free_;
};

enum class FlushCause : std::uint8_t {
  kSize = 0,   // open batch reached max_batch
  kBoundary,   // host run-loop iteration ended (op boundary)
  kIdle,       // endpoint about to sleep; backstop flush
  kDeadline,   // sub-cap batch held to the flush deadline, which expired
  kNumCauses,
};

inline const char* ToString(FlushCause c) {
  switch (c) {
    case FlushCause::kSize:
      return "size";
    case FlushCause::kBoundary:
      return "boundary";
    case FlushCause::kIdle:
      return "idle";
    case FlushCause::kDeadline:
      return "deadline";
    case FlushCause::kNumCauses:
      break;
  }
  return "?";
}

struct CoalescerConfig {
  NodeId self = 0;   // stamped as WireBatch::src
  int num_peers = 0; // peer id space (self's slot stays unused)
  bool enabled = false;
  int max_batch = 16;  // mirrors RackParams::coalesce_max_batch
  // Deadline-based flush (the live analogue of the sim's coalesce_window_ns):
  // when > 0, boundary flushes HOLD sub-cap batches until they have been open
  // this long, trading bounded extra latency for fatter batches.  Size-cap
  // flushes still fire immediately, and the pre-sleep idle path flushes
  // expired batches while capping the sleep to the earliest open deadline.
  std::uint64_t flush_deadline_ns = 0;
  // Monotonic clock, injectable for tests; required when flush_deadline_ns>0.
  std::function<std::uint64_t()> now_ns;
  // When set, Take() swaps in recycled batches from this pool instead of
  // default-constructing (the zero-alloc path).  Null (unit tests) falls back
  // to fresh batches.
  WireBatchPool* pool = nullptr;
  // When warm_slots > 0, the per-peer open batches are pre-warmed at
  // construction (WireBatch::Warm).  Without this the initial open batches
  // start cold and — because the pool is LIFO — keep circulating at its top,
  // paying first-touch growth allocations well into a run.
  std::size_t warm_slots = 0;
  std::size_t warm_value_bytes = 0;
};

// Per-peer send-side batch buffers.  Single-threaded: only the owning node's
// thread appends and takes (the same contract as the engines themselves).
class SendCoalescer {
 public:
  explicit SendCoalescer(const CoalescerConfig& config);

  // Appends one message to the open batch for `to`.  Returns true when the
  // batch just reached max_batch: the caller must Take(to, kSize) and deliver
  // it now, so a batch never exceeds the cap.
  bool Append(NodeId to, WireBody body);

  // Typed append: same contract, but assigns into a recycled slot without
  // constructing a WireBody temporary (the zero-alloc send path).
  template <typename T>
  bool AppendTyped(NodeId to, const T& msg) {
    WireBatch& batch = open_[to];
    if (batch.empty()) {
      StampOpen(to);
    }
    batch.Append(msg);
    return batch.size() >= static_cast<std::size_t>(effective_max_);
  }

  // Closes and returns the open batch for `to` (empty when there is nothing
  // open).  Non-empty takes are recorded in the flush/size stats.
  WireBatch Take(NodeId to, FlushCause cause);

  bool empty(NodeId to) const { return open_[to].empty(); }
  bool AllEmpty() const;
  // Messages sitting in open batches (committed to delivery, not yet pushed).
  std::size_t open_messages() const;

  // --- deadline policy ---
  bool deadline_enabled() const { return config_.flush_deadline_ns > 0; }
  // True when the open batch for `to` has been held past the flush deadline.
  // The `now` overload lets a flush pass read the clock once for all peers.
  bool DeadlineExpired(NodeId to) const;
  bool DeadlineExpired(NodeId to, std::uint64_t now) const;
  std::uint64_t now_ns() const { return config_.now_ns(); }
  // Nanoseconds until the earliest open batch expires (0 when one already
  // has; max() when nothing is open).  For capping the pre-sleep wait.
  std::uint64_t MinRemainingNs() const;

  // --- observability (LiveReport / bench plumbing) ---
  std::uint64_t batches_sent() const { return batches_sent_; }
  std::uint64_t messages_sent() const { return messages_sent_; }
  // Arms batch-residence tracing (runtime/tracing.h): Take() then emits a
  // decimated kBatchOpen span covering first-append -> flush.  Must be set
  // before the owning node's thread starts; null disarms (the default).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  std::uint64_t flushes(FlushCause cause) const {
    return flushes_[static_cast<std::size_t>(cause)];
  }
  const Histogram& batch_sizes() const { return batch_sizes_; }

 private:
  // Stamps the deadline clock on the first append to an empty batch.
  void StampOpen(NodeId to);

  CoalescerConfig config_;
  int effective_max_;  // 1 when disabled: every message closes its own batch
  std::vector<WireBatch> open_;  // indexed by peer id
  std::vector<std::uint64_t> open_since_ns_;  // first-append stamp per peer
  std::vector<std::uint64_t> open_cycles_;    // rdtsc first-append stamp (tracing)
  Tracer* tracer_ = nullptr;
  std::uint64_t batches_sent_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t flushes_[static_cast<std::size_t>(FlushCause::kNumCauses)] = {};
  Histogram batch_sizes_;
};

// Streaming receive-side demux: forwards the drained message stream to the
// engine handler, collapsing each run of consecutive same-key updates to its
// maximum-timestamp element (see header comment for why this is safe).
//
// Held pointers reference the caller's drained batch storage, so the stream
// must stay alive until Flush() — Endpoint::Poll drains into a member
// scratch buffer and flushes before returning.  One instance per Poll call;
// the collapsed-update count accumulates into *collapsed.
class UpdateRunDemux {
 public:
  explicit UpdateRunDemux(std::uint64_t* collapsed) : collapsed_(collapsed) {}

  template <typename Handler>
  void OnMessage(NodeId src, const WireBody& body, Handler&& handler) {
    if (const auto* upd = std::get_if<UpdateMsg>(&body)) {
      if (held_ != nullptr && held_->key == upd->key) {
        // Same run: keep whichever update Lamport order says wins.  Updates
        // from one writer are monotonic, so ties cannot occur; across writers
        // the writer id breaks them.
        ++*collapsed_;
        if (upd->ts > held_->ts) {
          held_ = upd;
          held_body_ = &body;
          held_src_ = src;
        }
        return;
      }
      Flush(handler);  // a different key starts a new run
      held_ = upd;
      held_body_ = &body;
      held_src_ = src;
      return;
    }
    // Any non-update ends the current run before it is delivered: an
    // invalidation or epoch message for the held key must not overtake it.
    Flush(handler);
    handler(src, body);
  }

  template <typename Handler>
  void Flush(Handler&& handler) {
    if (held_ == nullptr) {
      return;
    }
    const WireBody* body = held_body_;
    held_ = nullptr;
    held_body_ = nullptr;
    handler(held_src_, *body);
  }

 private:
  std::uint64_t* collapsed_;
  const UpdateMsg* held_ = nullptr;     // view into *held_body_
  const WireBody* held_body_ = nullptr; // points into the caller's drained batches
  NodeId held_src_ = 0;
};

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_COALESCER_H_
