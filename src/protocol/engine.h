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
// simply a callback deferred until the last ack.  See docs/ARCHITECTURE.md
// for the full state machine, including the superseded-write and
// update-overtakes-invalidation races.

#ifndef CCKVS_PROTOCOL_ENGINE_H_
#define CCKVS_PROTOCOL_ENGINE_H_

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

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
  using WriteDone = std::function<void()>;
  // Blocked reads resume with the value and timestamp they finally observed.
  using ReadDone = std::function<void(const Value&, Timestamp)>;

  enum class WriteResult { kCompleted, kPending };
  enum class ReadResult { kHit, kBlocked };

  CoherenceEngine(NodeId self, int num_nodes, SymmetricCache* cache, MessageSink* sink)
      : self_(self), num_nodes_(num_nodes), cache_(cache), sink_(sink) {}
  virtual ~CoherenceEngine() = default;
  CoherenceEngine(const CoherenceEngine&) = delete;
  CoherenceEngine& operator=(const CoherenceEngine&) = delete;

  // A put that hit the cache.  `done` fires when the write completes under the
  // model's rules (SC: immediately; Lin: after all acks + update broadcast).
  virtual WriteResult Write(Key key, const Value& value, WriteDone done) = 0;

  // A get that hit the cache.  kHit: *value/*ts are filled and `done` is not
  // used.  kBlocked (Lin): the entry is in a transient state; `done` fires when
  // it becomes readable.
  virtual ReadResult Read(Key key, Value* value, Timestamp* ts, ReadDone done) = 0;

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

  // The host filled a kFilling entry (epoch machinery): wakes blocked readers
  // and starts writes that queued while the entry awaited its value.
  void OnFilled(Key key) {
    WakeReaders(key);
    StartQueuedWrites(key);
  }

  // --- hot-set membership hooks (epoch machinery) ---
  //
  // The engine owns per-key transient state (in-flight writes, queued local
  // writes, parked readers) that an eviction would strand: a Lin write whose
  // entry disappears can never collect its acks, so its session hangs and
  // Quiescent() stays false forever.  Hosts must therefore ask EvictionSafe
  // before removing a key from the hot set, defer the eviction when it says
  // no, and call OnEvicted right after the entry is gone.

  // True when `key` can leave the hot set without stranding protocol state:
  // no parked readers, no queued local writes and (Lin) no in-flight write.
  virtual bool EvictionSafe(Key key) const;

  // Notification that `key` left the hot set (its cache entry is already
  // gone).  Requires EvictionSafe(key); drops empty per-key bookkeeping.
  virtual void OnEvicted(Key key);

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
  void PrewarmScratch(std::size_t value_bytes) {
    update_scratch_.value.reserve(value_bytes);
  }

  // True when no write is in flight and no reader is parked (quiescence; used
  // by tests and the model checker's deadlock detection).
  virtual bool Quiescent() const;

 protected:
  void ParkReader(Key key, ReadDone done) {
    ++stats_.reads_blocked;
    parked_readers_[key].push_back(std::move(done));
  }

  // Delivers the entry's current value to every reader parked on `key`.
  void WakeReaders(Key key);

  // Starts local writes queued behind a kFilling entry (or, Lin, behind an
  // in-flight write) once the entry can accept them.  SC drains the whole
  // queue inline; Lin starts the head and lets its completion chain the rest.
  virtual void StartQueuedWrites(Key key) = 0;

  // Queues (value, done) until StartQueuedWrites releases it.
  void QueueWrite(Key key, const Value& value, WriteDone done) {
    ++stats_.local_writes_queued;
    queued_writes_[key].emplace_back(value, std::move(done));
  }

  NodeId self_;
  int num_nodes_;
  SymmetricCache* cache_;
  MessageSink* sink_;
  EngineStats stats_;
  std::unordered_map<Key, std::vector<ReadDone>> parked_readers_;
  std::unordered_map<Key, std::deque<std::pair<Value, WriteDone>>> queued_writes_;

  // Reused across broadcasts so the value's string capacity survives; building
  // a fresh UpdateMsg per write would allocate on every put (hot path).
  UpdateMsg update_scratch_;
};

// Per-key Sequential Consistency (§5.2, "SC Protocol").
class ScEngine final : public CoherenceEngine {
 public:
  using CoherenceEngine::CoherenceEngine;

  WriteResult Write(Key key, const Value& value, WriteDone done) override;
  ReadResult Read(Key key, Value* value, Timestamp* ts, ReadDone done) override;
  void OnUpdate(NodeId from, const UpdateMsg& msg) override;
  void OnInvalidate(NodeId from, const InvalidateMsg& msg) override;
  void OnAck(NodeId from, const AckMsg& msg) override;

  ConsistencyModel model() const override { return ConsistencyModel::kSc; }

 private:
  void StartQueuedWrites(Key key) override;
  void ApplyWrite(Key key, CacheEntry* entry, const Value& value, WriteDone done);
};

// Per-key Linearizability (§5.2, "Lin Protocol").
class LinEngine final : public CoherenceEngine {
 public:
  using CoherenceEngine::CoherenceEngine;

  WriteResult Write(Key key, const Value& value, WriteDone done) override;
  ReadResult Read(Key key, Value* value, Timestamp* ts, ReadDone done) override;
  void OnUpdate(NodeId from, const UpdateMsg& msg) override;
  void OnInvalidate(NodeId from, const InvalidateMsg& msg) override;
  void OnAck(NodeId from, const AckMsg& msg) override;

  ConsistencyModel model() const override { return ConsistencyModel::kLin; }

  bool Quiescent() const override {
    return CoherenceEngine::Quiescent() && pending_done_.empty();
  }

  bool EvictionSafe(Key key) const override {
    return CoherenceEngine::EvictionSafe(key) && pending_done_.count(key) == 0;
  }

 private:
  void StartQueuedWrites(Key key) override;
  void StartWrite(Key key, CacheEntry* entry, const Value& value, WriteDone done);
  void CompleteWrite(Key key, CacheEntry* entry);

  // done-callbacks of in-flight writes, keyed by key.
  std::unordered_map<Key, WriteDone> pending_done_;
};

}  // namespace cckvs

#endif  // CCKVS_PROTOCOL_ENGINE_H_
