// Fully distributed consistency protocols (§5 — the paper's core contribution).
//
// Both protocols serialize writes with Lamport timestamps (clock, writer-id)
// instead of a primary, a sequencer or a directory, so any replica can initiate
// a write (Figure 4c):
//
//  * ScEngine  — per-key Sequential Consistency, after Burckhardt: a put bumps
//    the entry's Lamport clock, applies locally, broadcasts an update and
//    returns immediately (non-blocking).  Receivers apply an update iff its
//    timestamp exceeds the stored one (writer id breaks ties).
//
//  * LinEngine — per-key Linearizability, after Guerraoui et al.'s high
//    throughput atomic storage: a put broadcasts timestamped invalidations,
//    waits for acks from every sharer, and only then broadcasts the update and
//    returns (Figure 7).  One stable state (Valid) and two transient states
//    (Invalid, Write); reads of non-Valid entries block until the entry becomes
//    Valid.  Invalidations are *always* acknowledged — also when stale — which
//    is the deadlock-freedom linchpin verified by the model checker (S14).
//
// Engines are transport-agnostic: outgoing messages go to a MessageSink, and the
// host (rack simulation, unit test, or model checker) feeds incoming messages
// back.  This is what lets the exhaustive checker explore every interleaving of
// the exact production code paths.
//
// Threading model: an engine is single-threaded — the host serializes all
// calls (client ops and message deliveries).  Completion is callback-based:
// Write/Read return immediately and fire WriteDone/ReadDone when the
// operation completes under the model's rules, so a blocking Lin write is
// simply a callback deferred until the last ack.  Every such waiter lives on
// its key's CacheEntry (symmetric_cache.h): the in-flight Lin write's
// completion beside pending_ts, parked readers and queued local writes in
// per-entry FIFOs.  The engine keeps no per-key state of its own, only a
// count of its waiters and the free list of FIFO nodes.  See
// docs/ARCHITECTURE.md for the full state machine, including the
// superseded-write and update-overtakes-invalidation races.

#ifndef CCKVS_PROTOCOL_ENGINE_H_
#define CCKVS_PROTOCOL_ENGINE_H_

#include <cstddef>
#include <deque>

#include "src/cache/symmetric_cache.h"
#include "src/common/check.h"
#include "src/common/types.h"
#include "src/protocol/messages.h"

namespace cckvs {

enum class ConsistencyModel : std::uint8_t {
  kNone = 0,  // baselines: no cache, no protocol
  kSc,
  kLin,
};

inline const char* ToString(ConsistencyModel m) {
  switch (m) {
    case ConsistencyModel::kNone:
      return "none";
    case ConsistencyModel::kSc:
      return "SC";
    case ConsistencyModel::kLin:
      return "Lin";
  }
  return "?";
}

// Where engines emit protocol messages.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void BroadcastUpdate(const UpdateMsg& msg) = 0;
  virtual void BroadcastInvalidate(const InvalidateMsg& msg) = 0;
  virtual void SendAck(NodeId to, const AckMsg& msg) = 0;
};

struct EngineStats {
  std::uint64_t writes = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t reads_hit = 0;
  std::uint64_t reads_blocked = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t updates_discarded = 0;
  std::uint64_t invalidations_applied = 0;
  std::uint64_t invalidations_stale = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t writes_superseded = 0;
  std::uint64_t local_writes_queued = 0;
};

class CoherenceEngine {
 public:
  using WriteDone = cckvs::WriteDone;
  // Blocked reads resume with the value and timestamp they finally observed.
  using ReadDone = cckvs::ReadDone;

  enum class WriteResult { kCompleted, kPending };
  enum class ReadResult { kHit, kBlocked };

  CoherenceEngine(NodeId self, int num_nodes, SymmetricCache* cache, MessageSink* sink)
      : self_(self), num_nodes_(num_nodes), cache_(cache), sink_(sink) {}
  virtual ~CoherenceEngine() = default;
  CoherenceEngine(const CoherenceEngine&) = delete;
  CoherenceEngine& operator=(const CoherenceEngine&) = delete;

  // A put that hit the cache.  `done` fires when the write completes under the
  // model's rules (SC: immediately; Lin: after all acks + update broadcast).
  WriteResult Write(Key key, const Value& value, WriteDone done);

  // A get that hit the cache.  kHit: *value/*ts are filled and `done` is not
  // used.  kBlocked: the entry is unfilled or (Lin) in a transient state;
  // `done` fires when it becomes readable.
  ReadResult Read(Key key, Value* value, Timestamp* ts, ReadDone done);

  // A get whose probe already returned a kValid entry: both protocols serve
  // it at once, so a host that probed can skip Read's second lookup and its
  // callback.  Fills *value/*ts (each may be null) and counts a read hit.
  void ReadHit(const CacheEntry& entry, Value* value, Timestamp* ts) {
    CCKVS_DCHECK(entry.state() == CacheState::kValid);
    ++stats_.reads_hit;
    if (value != nullptr) {
      *value = entry.value;
    }
    if (ts != nullptr) {
      *ts = entry.ts();
    }
  }

  // Incoming protocol messages.
  virtual void OnUpdate(NodeId from, const UpdateMsg& msg) = 0;
  virtual void OnInvalidate(NodeId from, const InvalidateMsg& msg) = 0;
  virtual void OnAck(NodeId from, const AckMsg& msg) = 0;

  // The host filled a kFilling entry (an epoch fill or, live, the prefill):
  // wakes blocked readers and starts writes that queued while the entry
  // awaited its value.  After PrewarmScratch, a Lin entry's transient-write
  // values also get their capacity here, so its first writes do not allocate.
  void OnFilled(Key key);

  // True when `key` can leave the hot set without stranding a waiter: no
  // parked reader, no queued local write and (Lin) no in-flight write.  A
  // Lin write whose entry disappears could never collect its acks, so its
  // session would hang.  Hosts ask this before evicting a key and defer the
  // eviction when it says no; SymmetricCache::Evict CHECKs it.
  bool EvictionSafe(Key key) const {
    const CacheEntry* entry = cache_->Find(key);
    return entry == nullptr || !entry->HasWaiters();
  }

  virtual ConsistencyModel model() const = 0;
  const EngineStats& stats() const { return stats_; }

  // The timestamp a local write of `key` completed at, read from inside its
  // WriteDone: Lin still holds it in pending_ts when `done` fires, and SC
  // applied it synchronously, so the entry's own timestamp is the write's.
  // Timestamp{} when the key is no longer cached.
  Timestamp CompletedWriteTs(Key key) const {
    const CacheEntry* e = cache_->Find(key);
    if (e == nullptr) {
      return Timestamp{};
    }
    return model() == ConsistencyModel::kLin ? e->pending_ts : e->ts();
  }

  // Gives the reused broadcast scratch its value capacity up front.  Without
  // this, the node's FIRST cache-hot write pays the scratch's one string
  // growth — which lands inside the measured window (and trips the zero-alloc
  // audit) whenever warmup happened not to write a hot key, e.g. under
  // node-strided skew where most of a node's writes miss the shared cache.
  // Also makes the first waiter nodes and sets the value size OnFilled warms
  // Lin entries to.  Call once, before the first operation.
  void PrewarmScratch(std::size_t value_bytes);

  // True when no write is in flight and no operation waits (quiescence; used
  // by hosts' termination, tests and the model checker's deadlock detection).
  bool Quiescent() const { return waiters_ == 0; }

 protected:
  // Delivers the entry's value to its parked readers, in park order, while
  // the entry is Valid.  Each reader leaves the FIFO before its callback
  // runs, so a callback may re-enter the engine.
  void WakeReaders(CacheEntry* entry);

  // Starts a local write on an entry that can take it (no write in flight,
  // not kFilling).  SC applies it at once (kCompleted); Lin starts its
  // invalidation round (kPending).  `value` is read before any callback runs.
  virtual WriteResult StartWrite(Key key, CacheEntry* entry, const Value& value,
                                 WriteDone done) = 0;

  // Starts local writes queued behind a kFilling entry (or, Lin, behind an
  // in-flight write) once the entry can accept them.
  void StartQueuedWrites(Key key, CacheEntry* entry);

  // Waiter nodes come from a free list over every node the engine has made:
  // once it has had as many waiters at once as it ever will (at most one per
  // session), parking and queueing allocate nothing.
  Waiter* TakeWaiter() {
    if (free_waiters_ == nullptr) {
      GiveWaiter(&waiter_nodes_.emplace_back());
    }
    Waiter* w = free_waiters_;
    free_waiters_ = w->next;
    return w;
  }
  void GiveWaiter(Waiter* w) {
    w->next = free_waiters_;
    free_waiters_ = w;
  }

  NodeId self_;
  int num_nodes_;
  SymmetricCache* cache_;
  MessageSink* sink_;
  EngineStats stats_;
  // Parked readers, queued writes and in-flight Lin writes on every entry.
  std::size_t waiters_ = 0;
  std::deque<Waiter> waiter_nodes_;  // a deque never moves its elements
  Waiter* free_waiters_ = nullptr;
  std::size_t warm_value_bytes_ = 0;  // 0: OnFilled warms nothing

  // Reused across broadcasts so the value's string capacity survives; building
  // a fresh UpdateMsg per write would allocate on every put (hot path).
  UpdateMsg update_scratch_;
};

// Per-key Sequential Consistency (§5.2, "SC Protocol").
class ScEngine final : public CoherenceEngine {
 public:
  using CoherenceEngine::CoherenceEngine;

  void OnUpdate(NodeId from, const UpdateMsg& msg) override;
  void OnInvalidate(NodeId from, const InvalidateMsg& msg) override;
  void OnAck(NodeId from, const AckMsg& msg) override;

  ConsistencyModel model() const override { return ConsistencyModel::kSc; }

 private:
  WriteResult StartWrite(Key key, CacheEntry* entry, const Value& value,
                         WriteDone done) override;
};

// Per-key Linearizability (§5.2, "Lin Protocol").
class LinEngine final : public CoherenceEngine {
 public:
  using CoherenceEngine::CoherenceEngine;

  void OnUpdate(NodeId from, const UpdateMsg& msg) override;
  void OnInvalidate(NodeId from, const InvalidateMsg& msg) override;
  void OnAck(NodeId from, const AckMsg& msg) override;

  ConsistencyModel model() const override { return ConsistencyModel::kLin; }

 private:
  WriteResult StartWrite(Key key, CacheEntry* entry, const Value& value,
                         WriteDone done) override;
  void CompleteWrite(Key key, CacheEntry* entry);
};

}  // namespace cckvs

#endif  // CCKVS_PROTOCOL_ENGINE_H_
