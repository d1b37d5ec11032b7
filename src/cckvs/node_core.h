// The client-op path and the home side of a ccKVS node (§3-§6), one copy for
// every host.
//
// A node serves a client op by one rule.  It probes the symmetric cache: a GET
// on a Valid entry is served at once, a GET on any other entry parks on the
// engine until the entry is readable, and a PUT runs the engine's write after
// a fresh Find (the key may have left the hot set since the probe).  A miss
// goes to the key's home shard.  NodeCore<Host> owns that rule and its state:
// the session slots, the route (an optional L1 front, the probe, the miss
// path), the FIFO rings of SC writes parked on broadcast credits and of shard
// ops parked on an epoch's residency gate, and the completion counters,
// latency histogram and HistoryOp record.  docs/ARCHITECTURE.md has the
// diagram.
//
// A node is also the home of a key shard.  NodeCore is its home side: the
// HotSetHost its HotSetManager drives (write-backs, the residency gate raised
// around an epoch's fills and lowered by the install barrier, §4), the
// inbound consistency and epoch messages (On*), and a peer's op on the shard
// (ServeShardOp, §6.1).  It is also the only place the node-private L1
// changes state: every rule that fills or drops a copy lives here.
//
// RackNode (cckvs/rack.cc), LiveNode (runtime/live_node.h) and the model
// checker's transition scope (verify/model_checker.cc) are its hosts, each a
// template parameter, so every hook is a direct call: the live per-op path
// has no virtual call and no std::function of its own.  A host provides
//
//   static constexpr bool kInlineCpu;     // false: ChargeCpu(stage, fn) runs
//                                         //   fn once the stage is paid
//   static constexpr bool kRecordsLatency;  // false: no latency histogram;
//                                           //   LatencyStamp/Ns go unused
//   Partition* ShardFor(NodeId home);     // nullptr: SendMiss(slot) ships the
//                                         //   op; its reply calls Complete
//   bool AllPeersHaveCredit();
//   SimTime HistoryNow();                 // the history clock
//   std::uint64_t LatencyStamp();         // latency_ records
//   std::uint64_t LatencyNs(from, to);    //   LatencyNs(issue, done)
//   void AnnounceHotSet(const HotSetAnnounceMsg&);  // an epoch closed
//   Partition* HomeShard(Key);            // the shard of a key homed here;
//                                         //   nullptr when homed elsewhere
//   void PublishFills(const std::vector<FillMsg>&);   // to every peer, on the
//   void PublishInstalled(const EpochInstalledMsg&);  //   lanes updates use
//
// and hides the NodeHostHooks it needs.  Single-threaded, like the engine:
// the host serializes every call.  The includes stay in cache/, store/,
// protocol/, topk/, verify/, the common/ and workload/ headers verify/ uses,
// and the header-only rpc_messages.h.

#ifndef CCKVS_CCKVS_NODE_CORE_H_
#define CCKVS_CCKVS_NODE_CORE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/cache/l1_tail.h"
#include "src/cache/symmetric_cache.h"
#include "src/cckvs/rpc_messages.h"
#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/types.h"
#include "src/protocol/engine.h"
#include "src/store/partition.h"
#include "src/topk/flat_space_saving.h"
#include "src/topk/hot_set_host.h"
#include "src/topk/hot_set_manager.h"
#include "src/verify/history.h"
#include "src/workload/workload.h"

namespace cckvs {

// Sessions are pinned to their node: slot s of node n is session
// n * kMaxSessionsPerNode + s.  More slots would give two sessions one id,
// and the checkers would merge their histories.
inline constexpr std::uint32_t kMaxSessionsPerNode = 100'000;

inline SessionId SessionIdOf(NodeId node, std::uint32_t slot) {
  CCKVS_CHECK_LT(slot, kMaxSessionsPerNode);
  return static_cast<SessionId>(node) * kMaxSessionsPerNode + slot;
}

// How an op completed.  kCache and kL1 both count as hierarchy hits.
enum class OpRoute : std::uint8_t { kMiss, kCache, kL1 };
enum class OpPark : std::uint8_t { kCredit, kGated };
enum class CpuStage : std::uint8_t { kCacheHit, kCacheWrite };

struct NodeCounters {
  std::uint64_t completed = 0;
  std::uint64_t hit_completed = 0;  // symmetric-cache and L1 hits
  std::uint64_t miss_completed = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t sc_credit_stalls = 0;  // SC writes parked on credits
  std::uint64_t gate_retries = 0;      // shard ops parked on the residency gate
};

// The hooks a host may hide with its own; these do nothing.
struct NodeHostHooks {
  void OnIssue(std::uint32_t /*slot*/) {}  // after the latency stamp
  void OnPark(std::uint32_t /*slot*/, OpPark /*why*/) {}
  // The op left its ring for good and is still in flight.
  void OnUnpark(std::uint32_t /*slot*/, OpPark /*why*/) {}
  // Bracket a shard access that did not park.
  std::uint64_t ShardAccessStart(std::uint32_t /*slot*/) { return 0; }
  void OnShardAccess(std::uint32_t /*slot*/, std::uint64_t /*start*/) {}
  // Complete's last step; `done` is the latency stamp it took (0 when the
  // host records no latency).
  void OnComplete(std::uint32_t /*slot*/, const Value& /*read_value*/, Timestamp /*ts*/,
                  OpRoute /*route*/, std::uint64_t /*done*/) {}
  // LiftGate's last step: `key`'s residency gate is down.
  void OnGateLifted(Key /*key*/) {}
};

// A FIFO of parked slots.  A slot waits in a ring at most once at a time, so
// one entry per slot never overflows and a push never allocates.
class SlotRing {
 public:
  bool empty() const { return head_ == tail_; }
  std::size_t size() const { return static_cast<std::size_t>(tail_ - head_); }
  std::uint32_t front() const { return slots_[head_ % slots_.size()]; }
  std::uint32_t operator[](std::size_t i) const {
    return slots_[(head_ + i) % slots_.size()];
  }
  void pop_front() { ++head_; }
  void push_back(std::uint32_t slot) { slots_[tail_++ % slots_.size()] = slot; }
  // Grows the capacity to at least `n`, keeping the FIFO order.
  void Reserve(std::size_t n) {
    if (n <= slots_.size()) {
      return;
    }
    std::vector<std::uint32_t> grown(std::max(n, 2 * slots_.size()));
    std::size_t i = 0;
    for (; !empty(); pop_front()) {
      grown[i++] = front();
    }
    slots_.swap(grown);
    head_ = 0;
    tail_ = i;
  }

 private:
  std::vector<std::uint32_t> slots_;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
};

template <typename Host>
class NodeCore final : public HotSetHost {
 public:
  // Cache-line aligned: the owning thread writes its slot on every op.
  // Packed 88-byte slots straddle lines they share with neighbours and other
  // heap data; on read_skew that cost about 4% of throughput and 20-60% more
  // op_p99.
  struct alignas(64) Slot {
    Op op;
    std::uint64_t hash = 0;          // HashKey(op.key); the host sets it with the op
    NodeId home = 0;                 // op.key's home node; likewise
    SimTime invoke = 0;              // history clock at issue (history runs)
    std::uint64_t invoke_stamp = 0;  // the host's latency stamp at issue
    SessionId session = 0;
    bool idle = true;
  };

  // What the core drives.  No cache or engine: every op misses, and no
  // consistency message arrives.  An L1 comes with the sketch its admission
  // offers miss reads to.  With l1_validate (Lin) an L1 hit counts only while
  // the home shard still holds the cached write, so the L1 admits only keys
  // whose home ShardFor gives.
  struct Parts {
    SymmetricCache* cache = nullptr;
    CoherenceEngine* engine = nullptr;
    HotSetManager* hot_mgr = nullptr;  // online top-k runs
    L1TailCache* l1 = nullptr;
    FlatSpaceSaving* l1_sketch = nullptr;
    bool l1_validate = false;
    History* history = nullptr;  // record_history runs
  };

  NodeCore(Host* host, NodeId self) : host_(*host), self_(self) {
    if constexpr (Host::kRecordsLatency) {
      latency_.emplace();
    }
  }
  NodeCore(const NodeCore&) = delete;
  NodeCore& operator=(const NodeCore&) = delete;

  void Attach(const Parts& parts) { parts_ = parts; }

  // An idle slot: the most recently released one, else a new one.
  std::uint32_t Acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back().session = SessionIdOf(self_, slot);
    ++idle_;
    credit_parked_.Reserve(slots_.size());
    gated_parked_.Reserve(slots_.size());
    return slot;
  }
  void Release(std::uint32_t slot) { free_.push_back(slot); }

  Slot& slot(std::uint32_t i) { return slots_[i]; }
  const Slot& slot(std::uint32_t i) const { return slots_[i]; }
  std::size_t size() const { return slots_.size(); }
  std::size_t idle_slots() const { return idle_; }
  std::size_t credit_parked() const { return credit_parked_.size(); }
  std::size_t gated_parked() const { return gated_parked_.size(); }
  const SlotRing& gated_ring() const { return gated_parked_; }  // in retry order
  const NodeCounters& counters() const { return counters_; }
  const Histogram& latency() const
    requires Host::kRecordsLatency
  {
    return *latency_;
  }
  Histogram& latency()
    requires Host::kRecordsLatency
  {
    return *latency_;
  }

  // Stamps the op the host put in an idle slot, and lets the coordinator
  // sample its key.  Route(slot) serves it.
  void Issue(std::uint32_t slot) {
    Slot& s = slots_[slot];
    CCKVS_DCHECK(s.idle);
    if constexpr (Host::kRecordsLatency) {
      s.invoke_stamp = host_.LatencyStamp();  // first: the op starts here
    }
    host_.OnIssue(slot);
    if (parts_.history != nullptr) {
      s.invoke = host_.HistoryNow();
    }
    s.idle = false;
    --idle_;
    HotSetManager* hot = parts_.hot_mgr;
    if (hot != nullptr && hot->coordinator() && hot->Sample(s.op.key)) {
      host_.AnnounceHotSet(hot->announcement());
    }
  }

  void Route(std::uint32_t slot) {
    Slot& s = slots_[slot];
    CCKVS_DCHECK_EQ(s.hash, HashKey(s.op.key));
    if (parts_.l1 != nullptr) {
      if (s.op.type == OpType::kPut) {
        // Write-through-invalidate, up front even if the write parks.
        parts_.l1->Invalidate(s.op.key, s.hash);
      } else if (TryServeFromL1(slot)) {
        return;
      }
    }
    const CacheEntry* entry =
        parts_.cache != nullptr ? parts_.cache->Probe(s.op.key) : nullptr;
    if (entry == nullptr) {
      Miss(slot);
    } else if (s.op.type == OpType::kPut) {
      if constexpr (Host::kInlineCpu) {
        StartCacheWrite(slot);
      } else {
        host_.ChargeCpu(CpuStage::kCacheWrite, [this, slot] { StartCacheWrite(slot); });
      }
    } else if (entry->state() != CacheState::kValid) {
      // Filling (or, Lin, Invalid/Write): the read parks on the entry.
      parts_.engine->Read(s.op.key, nullptr, nullptr,
                          [this, slot](const Value& v, Timestamp t) {
                            Complete(slot, v, t, OpRoute::kCache);
                          });
    } else {
      // Both protocols serve a Valid entry at once, off the probe's lookup.
      Timestamp ts;
      parts_.engine->ReadHit(*entry, &read_scratch_, &ts);
      if constexpr (Host::kInlineCpu) {
        Complete(slot, read_scratch_, ts, OpRoute::kCache);
      } else {
        host_.ChargeCpu(CpuStage::kCacheHit, [this, slot, value = read_scratch_, ts] {
          Complete(slot, value, ts, OpRoute::kCache);
        });
      }
    }
  }

  // Parks a shard op until the residency gate lifts.  A retry that parks
  // again is not a new gate encounter.
  void ParkGated(std::uint32_t slot) {
    counters_.gate_retries += retrying_gated_ ? 0 : 1;
    host_.OnPark(slot, OpPark::kGated);
    gated_parked_.push_back(slot);
  }

  // Starts credit-parked SC writes, oldest first, while credits last.
  void RetryParkedScWrites() {
    while (!credit_parked_.empty() && host_.AllPeersHaveCredit()) {
      const std::uint32_t slot = credit_parked_.front();
      credit_parked_.pop_front();
      host_.OnUnpark(slot, OpPark::kCredit);
      StartCacheWrite(slot);
    }
  }

  // Re-routes each gated op once, in park order.  True when any left.
  bool RetryGatedOps() {
    retrying_gated_ = true;
    bool progress = false;
    for (std::size_t n = gated_parked_.size(); n > 0; --n) {
      const std::uint32_t slot = gated_parked_.front();
      gated_parked_.pop_front();
      const std::size_t parked = gated_parked_.size();
      Route(slot);
      if (gated_parked_.size() == parked) {
        progress = true;
        if (!slots_[slot].idle) {
          host_.OnUnpark(slot, OpPark::kGated);
        }
      }
    }
    retrying_gated_ = false;
    return progress;
  }

  // `read_value` is what a GET read; `ts` what the op read or wrote.
  void Complete(std::uint32_t slot, const Value& read_value, Timestamp ts,
                OpRoute route) {
    Slot& s = slots_[slot];
    CCKVS_CHECK(!s.idle);
    ++counters_.completed;
    ++(route == OpRoute::kMiss ? counters_.miss_completed : counters_.hit_completed);
    counters_.l1_hits += route == OpRoute::kL1 ? 1 : 0;
    std::uint64_t done = 0;
    if constexpr (Host::kRecordsLatency) {
      done = host_.LatencyStamp();
      latency_->Record(host_.LatencyNs(s.invoke_stamp, done));
    }
    if (parts_.history != nullptr) {
      parts_.history->Record(HistoryOp{
          s.session, s.op.type, s.op.key,
          s.op.type == OpType::kPut ? s.op.value : read_value, ts, s.invoke,
          host_.HistoryNow()});
    }
    s.idle = true;
    ++idle_;
    if (parts_.l1 != nullptr) {
      if (s.op.type == OpType::kPut) {
        // Invalidate AGAIN at completion, not just at routing: a concurrent
        // session's in-flight GET may have read the shard before this write
        // and refilled the L1 after the routing-time invalidation.  The
        // fabric is FIFO per peer pair, so any such stale response was
        // delivered, and its fill applied, before this write's own response;
        // dropping the key here kills every fill the write could have raced.
        parts_.l1->Invalidate(s.op.key, s.hash);
      } else if (route == OpRoute::kMiss) {
        // The miss path just produced an authoritative (value, ts), the only
        // kind of read the L1 admits.
        MaybeAdmitToL1(s, read_value, ts);
      }
    }
    host_.OnComplete(slot, read_value, ts, route, done);
  }

  // --- The home side ---

  // HotSetHost: the manager's duties on this node's shard (§4).  A write-back
  // may carry a value newer than a private copy taken while the key was still
  // shard-resident, so that copy goes first.
  void ApplyWriteback(const SymmetricCache::Eviction& ev) override {
    DropL1(ev.key);
    HomeShardOf(ev.key).Apply(ev.key, ev.value, ev.ts);
  }
  // Raises the residency gate and snapshots the fill atomically: a direct
  // shard write lands entirely before the snapshot or is refused after it, so
  // the cache era starts from an authoritative value.
  FillSnapshot GateAndSnapshot(Key key) override {
    const Partition::ResidentSnapshot snap = HomeShardOf(key).MarkCacheResident(key);
    return FillSnapshot{snap.value, snap.ts};
  }
  void PublishFills(const std::vector<FillMsg>& fills) override {
    host_.PublishFills(fills);
  }
  void PublishInstalled(const EpochInstalledMsg& msg) override {
    host_.PublishInstalled(msg);
  }
  // The ops parked on the gate wait for the host's next retry pass.
  void LiftGate(Key key) override {
    HomeShardOf(key).ClearCacheResident(key);
    host_.OnGateLifted(key);
  }

  // The inbound messages.  Each drops the key's private copy first: an update
  // or invalidation proves the key was written somewhere, and a fill or an
  // announce moves it into the symmetric tier (tier exclusivity).  An update
  // goes to the engine while the key is cached here; an uncached key's
  // write-back completes into the shard of its home, and elsewhere is
  // recorded ahead of its pending admission (hot_set_manager.h).
  void OnUpdate(NodeId src, const UpdateMsg& msg) {
    DropL1(msg.key);
    if (parts_.cache->Find(msg.key) != nullptr) {
      parts_.engine->OnUpdate(src, msg);
    } else if (Partition* shard = host_.HomeShard(msg.key)) {
      shard->Apply(msg.key, msg.value, msg.ts);
    } else if (parts_.hot_mgr != nullptr) {
      parts_.hot_mgr->NoteUncachedUpdate(msg.key, msg.value, msg.ts);
    }
  }
  // An invalidation of an uncached key is recorded ahead of its pending
  // admission, and the engine always sees it: it acks even when cold,
  // because the writer counts every peer's ack.
  void OnInvalidate(NodeId src, const InvalidateMsg& msg) {
    DropL1(msg.key);
    if (parts_.hot_mgr != nullptr && parts_.cache->Find(msg.key) == nullptr) {
      parts_.hot_mgr->NoteUncachedInvalidate(msg.key, msg.ts);
    }
    parts_.engine->OnInvalidate(src, msg);
  }
  void OnFill(const FillMsg& fill) {
    DropL1(fill.key);
    if (parts_.hot_mgr != nullptr) {
      parts_.hot_mgr->ApplyFill(fill);
    }
  }
  void OnPeerInstalled(NodeId src, std::uint64_t epoch) {
    if (parts_.hot_mgr != nullptr) {
      parts_.hot_mgr->DrivePeerInstalled(src, epoch);
    }
  }
  // A hot set announced by the coordinator, this node's own included.
  void OnAnnounce(const HotSetAnnounceMsg& msg) {
    for (const Key key : msg.keys) {
      DropL1(key);
    }
    if (parts_.hot_mgr != nullptr) {
      parts_.hot_mgr->DriveAnnounce(msg);
    }
  }
  // Re-attempts deferred evictions; call when protocol progress (acks,
  // updates, fills) may have released keys.  True when any were deferred.
  bool DriveDeferred() {
    return parts_.hot_mgr != nullptr && parts_.hot_mgr->DriveDeferred();
  }

  // A peer's op on this node's shard (§6.1), through the residency gate.
  // False, with nothing written, while the gate is up; the host decides
  // whether the request waits or bounces.  A served PUT drops the private
  // copy: the home is the one node that observes a peer's shard write.
  bool ServeShardOp(const RpcRequest& req, Value* value, Timestamp* ts) {
    Partition* shard = host_.HomeShard(req.key);
    CCKVS_CHECK(shard != nullptr);  // a peer's request for a key homed elsewhere
    const std::uint64_t hash = HashKey(req.key);
    if (!GatedShardOp(*shard, req.op, req.key, hash, req.value, value, ts)) {
      return false;
    }
    if (req.op == OpType::kPut) {
      DropL1(req.key);
    }
    return true;
  }

 private:
  // One GET or PUT on a home shard through its residency gate.  False, with
  // nothing written, while the gate is up: the hot set still owns the key
  // somewhere in the rack.
  static bool GatedShardOp(Partition& shard, OpType type, Key key, std::uint64_t hash,
                           const Value& put_value, Value* value, Timestamp* ts) {
    if (type == OpType::kPut) {
      return shard.TryPut(key, hash, put_value, ts);
    }
    bool resident = false;
    // The synthesizer guarantees every GET succeeds.
    CCKVS_CHECK(shard.Get(key, hash, value, ts, &resident));
    return !resident;
  }

  Partition& HomeShardOf(Key key) {
    Partition* shard = host_.HomeShard(key);
    CCKVS_CHECK(shard != nullptr);  // the manager's duties are for keys homed here
    return *shard;
  }

  void DropL1(Key key) {
    if (parts_.l1 != nullptr) {
      parts_.l1->Invalidate(key);
    }
  }

  // Admission on an authoritative miss read: offer the key to the sketch and
  // fill the L1 once it proves locally hot and is not globally hot.
  void MaybeAdmitToL1(const Slot& s, const Value& value, Timestamp ts) {
    if (parts_.l1_validate && host_.ShardFor(s.home) == nullptr) {
      return;  // a Lin hit could not validate against an RPC-only home
    }
    std::uint64_t guaranteed = 0;
    parts_.l1_sketch->Offer(s.op.key, s.hash, &guaranteed);
    if (++l1_offers_ % (parts_.l1_sketch->capacity() * 8) == 0) {
      // Age the sketch so a key that WAS locally hot cannot squat on a
      // counter forever once per-node popularity drifts.
      parts_.l1_sketch->DecayHalve();
    }
    if (guaranteed < 2) {
      // Gate on PROVEN sightings (count - error), not the estimate: a
      // saturated sketch hands every newcomer the evicted minimum as its
      // estimate, and admitting on that would fill the L1 with one-hit tail
      // keys, churn that evicts the genuinely hot-here entries and burns fill
      // CPU for no reuse.
      return;
    }
    if (parts_.cache != nullptr && parts_.cache->Find(s.op.key) != nullptr) {
      return;  // tier exclusivity: the symmetric tier already owns it
    }
    parts_.l1->Fill(s.op.key, s.hash, value, ts);
  }

  bool TryServeFromL1(std::uint32_t slot) {
    const Slot& s = slots_[slot];
    Timestamp ts;
    if (!parts_.l1->Get(s.op.key, s.hash, &read_scratch_, &ts)) {
      return false;
    }
    if (parts_.l1_validate) {
      // Lin: a hit counts only if the home shard still holds the exact write
      // cached.  (clock, writer) identifies a write, so a timestamp match
      // means the same value, and the peek is the linearization point.  A
      // resident flag means the symmetric tier owns the key now.  Either way
      // the private copy dies and the op takes the ordinary paths.
      const Partition* home = host_.ShardFor(s.home);
      Timestamp home_ts;
      bool resident = false;
      CCKVS_CHECK(home != nullptr &&
                  home->PeekTimestamp(s.op.key, s.hash, &home_ts, &resident));
      if (resident || !(home_ts == ts)) {
        parts_.l1->Invalidate(s.op.key, s.hash);
        return false;
      }
    }
    Complete(slot, read_scratch_, ts, OpRoute::kL1);
    return true;
  }

  // A PUT whose probe hit, once its CPU stage is paid or its credits are back.
  void StartCacheWrite(std::uint32_t slot) {
    const Key key = slots_[slot].op.key;
    if (parts_.cache->Find(key) == nullptr) {
      Miss(slot);  // the key left the hot set since the probe
      return;
    }
    if (parts_.engine->model() == ConsistencyModel::kSc && !host_.AllPeersHaveCredit()) {
      // An SC write completes once its update broadcast is posted, so posting
      // is the throttle point (§6.3).  Lin writes wait on their ack round.
      ++counters_.sc_credit_stalls;
      host_.OnPark(slot, OpPark::kCredit);
      credit_parked_.push_back(slot);
      return;
    }
    // [this, slot] fits std::function's small buffer; more would allocate.
    parts_.engine->Write(key, slots_[slot].op.value, [this, slot] {
      const Slot& s = slots_[slot];
      Complete(slot, s.op.value, parts_.engine->CompletedWriteTs(s.op.key),
               OpRoute::kCache);
    });
  }

  // The home shard in place, or the host's RPC.  A gated op parks until the
  // key settles into the shard or enters this cache.
  void Miss(std::uint32_t slot) {
    const Slot& s = slots_[slot];
    Partition* shard = host_.ShardFor(s.home);
    if (shard == nullptr) {
      host_.SendMiss(slot);
      return;
    }
    const std::uint64_t start = host_.ShardAccessStart(slot);
    Timestamp ts;
    if (!GatedShardOp(*shard, s.op.type, s.op.key, s.hash, s.op.value, &read_scratch_,
                      &ts)) {
      ParkGated(slot);
      return;
    }
    host_.OnShardAccess(slot, start);
    Complete(slot, s.op.type == OpType::kGet ? read_scratch_ : s.op.value, ts,
             OpRoute::kMiss);
  }

  Host& host_;
  NodeId self_;
  Parts parts_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // released slots, for Acquire
  std::size_t idle_ = 0;
  SlotRing credit_parked_;
  SlotRing gated_parked_;
  bool retrying_gated_ = false;
  NodeCounters counters_;
  std::uint64_t l1_offers_ = 0;  // drives the admission sketch's decay cadence
  // Engaged when Host::kRecordsLatency, by the constructor: the host is an
  // incomplete type where this member is declared.
  std::optional<Histogram> latency_;
  Value read_scratch_;  // copy-outs resize into it, reusing its capacity
};

}  // namespace cckvs

#endif  // CCKVS_CCKVS_NODE_CORE_H_
