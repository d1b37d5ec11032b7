// The client-op path of a ccKVS node (§3, §5, §6.3), one copy for every host.
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
//
// and hides the NodeHostHooks it needs.  Single-threaded, like the engine:
// the host serializes every call.  The includes stay in cache/, store/,
// protocol/, topk/, verify/ and the common/ and workload/ headers verify/ uses.

#ifndef CCKVS_CCKVS_NODE_CORE_H_
#define CCKVS_CCKVS_NODE_CORE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/cache/l1_tail.h"
#include "src/cache/symmetric_cache.h"
#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/types.h"
#include "src/protocol/engine.h"
#include "src/store/partition.h"
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

// One GET or PUT on a home shard through its residency gate, for the miss
// path and for the hosts' home sides.  False, with nothing written, while the
// gate is up: the hot set still owns the key somewhere in the rack.
inline bool GatedShardOp(Partition& shard, OpType type, Key key, std::uint64_t hash,
                         const Value& put_value, Value* value, Timestamp* ts) {
  if (type == OpType::kPut) {
    return shard.TryPut(key, hash, put_value, ts);
  }
  bool resident = false;
  // The synthesizer guarantees every GET succeeds.
  CCKVS_CHECK(shard.Get(key, hash, value, ts, &resident));
  return !resident;
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
class NodeCore {
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

  // What the core drives.  No cache or engine: every op misses.  With
  // l1_validate (Lin) an L1 hit counts only while the home shard still holds
  // the cached write, so ShardFor must give the home of every key the L1
  // admits.
  struct Parts {
    SymmetricCache* cache = nullptr;
    CoherenceEngine* engine = nullptr;
    HotSetManager* hot_mgr = nullptr;  // online top-k runs
    L1TailCache* l1 = nullptr;
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
    host_.OnComplete(slot, read_value, ts, route, done);
  }

 private:
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
  // Engaged when Host::kRecordsLatency, by the constructor: the host is an
  // incomplete type where this member is declared.
  std::optional<Histogram> latency_;
  Value read_scratch_;  // copy-outs resize into it, reusing its capacity
};

}  // namespace cckvs

#endif  // CCKVS_CCKVS_NODE_CORE_H_
