// NodeCore (cckvs/node_core.h) alone, driven by a scripted host: the route,
// both park rings, completion counters and the history record, the home side
// (the HotSetHost hooks, the inbound messages, a peer's shard op) and the L1
// rules, without a simulator or a live rack around them.

#include "src/cckvs/node_core.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/l1_tail.h"
#include "src/common/hash.h"
#include "src/protocol/engine.h"
#include "src/store/partition.h"
#include "src/topk/flat_space_saving.h"

namespace cckvs {
namespace {

constexpr NodeId kSelf = 1;

// Runs every CPU stage inline, hands out one shard for every home, and counts
// broadcast credits: each update the engine posts spends one.  With an L1
// capacity the core runs an L1 and its admission sketch (validated under Lin).
class ScriptedHost final : public MessageSink, private NodeHostHooks {
 public:
  struct Done {
    std::uint32_t slot;
    OpRoute route;
    Value value;
    Timestamp ts;
  };

  explicit ScriptedHost(ConsistencyModel model, std::size_t l1_capacity = 0)
      : cache_(16), core_(this, kSelf) {
    PartitionConfig pc;
    pc.node_id = kSelf;
    pc.synthesize = [](Key key) { return SynthesizeValue(key, 8); };
    shard_ = std::make_unique<Partition>(pc);
    if (model == ConsistencyModel::kLin) {
      engine_ = std::make_unique<LinEngine>(kSelf, /*num_nodes=*/1, &cache_, this);
    } else {
      engine_ = std::make_unique<ScEngine>(kSelf, /*num_nodes=*/2, &cache_, this);
    }
    if (l1_capacity > 0) {
      l1_ = std::make_unique<L1TailCache>(l1_capacity, L1Policy::kLru, 8);
      sketch_ = std::make_unique<FlatSpaceSaving>(2 * l1_capacity);
    }
    core_.Attach({.cache = &cache_,
                  .engine = engine_.get(),
                  .l1 = l1_.get(),
                  .l1_sketch = sketch_.get(),
                  .l1_validate = model == ConsistencyModel::kLin,
                  .history = &history_});
  }

  // Installs `keys` in the symmetric cache, Valid at `ts` unless `fill` is
  // false (then they wait in kFilling).
  void Cache(const std::vector<Key>& keys, Timestamp ts, bool fill = true) {
    cache_.InstallHotSet(keys);
    for (const Key key : keys) {
      if (fill) {
        cache_.Fill(key, "c" + std::to_string(key), ts);
      }
    }
  }

  // Acquires a slot, puts the op in it and issues and routes it.
  std::uint32_t Run(OpType type, Key key, const Value& value = {}) {
    const std::uint32_t slot = core_.Acquire();
    NodeCore<ScriptedHost>::Slot& s = core_.slot(slot);
    s.op = Op{type, key, value};
    s.hash = HashKey(key);
    s.home = 0;
    core_.Issue(slot);
    core_.Route(slot);
    return slot;
  }

  NodeCore<ScriptedHost>& core() { return core_; }
  SymmetricCache& cache() { return cache_; }
  CoherenceEngine& engine() { return *engine_; }
  Partition& shard() { return *shard_; }
  L1TailCache& l1() { return *l1_; }
  const History& history() const { return history_; }

  int credits = 1 << 20;
  std::vector<Done> done;
  std::vector<std::uint32_t> sent;  // SendMiss
  std::vector<std::pair<std::uint32_t, OpPark>> parks;
  std::vector<std::pair<std::uint32_t, OpPark>> unparks;
  bool shard_in_hand = true;
  bool home_here = true;  // HomeShard: every key is homed at this node
  std::vector<Key> fills_published;
  std::vector<std::uint64_t> installs_published;
  std::vector<Key> lifted;  // OnGateLifted

  void BroadcastUpdate(const UpdateMsg&) override { --credits; }
  void BroadcastInvalidate(const InvalidateMsg&) override {}
  void SendAck(NodeId, const AckMsg&) override {}

 private:
  friend class NodeCore<ScriptedHost>;
  static constexpr bool kInlineCpu = true;
  static constexpr bool kRecordsLatency = true;
  Partition* ShardFor(NodeId /*home*/) { return shard_in_hand ? shard_.get() : nullptr; }
  Partition* HomeShard(Key /*key*/) { return home_here ? shard_.get() : nullptr; }
  void PublishFills(const std::vector<FillMsg>& fills) {
    for (const FillMsg& fill : fills) {
      fills_published.push_back(fill.key);
    }
  }
  void PublishInstalled(const EpochInstalledMsg& msg) {
    installs_published.push_back(msg.epoch);
  }
  void OnGateLifted(Key key) { lifted.push_back(key); }
  void SendMiss(std::uint32_t slot) { sent.push_back(slot); }
  bool AllPeersHaveCredit() { return credits > 0; }
  SimTime HistoryNow() { return ++clock_; }
  std::uint64_t LatencyStamp() { return clock_; }
  std::uint64_t LatencyNs(std::uint64_t from, std::uint64_t to) { return to - from; }
  void AnnounceHotSet(const HotSetAnnounceMsg&) {}
  void OnPark(std::uint32_t slot, OpPark why) { parks.emplace_back(slot, why); }
  void OnUnpark(std::uint32_t slot, OpPark why) { unparks.emplace_back(slot, why); }
  void OnComplete(std::uint32_t slot, const Value& value, Timestamp ts, OpRoute route,
                  std::uint64_t /*done*/) {
    done.push_back(Done{slot, route, value, ts});
  }

  SymmetricCache cache_;
  std::unique_ptr<CoherenceEngine> engine_;
  std::unique_ptr<Partition> shard_;
  std::unique_ptr<L1TailCache> l1_;
  std::unique_ptr<FlatSpaceSaving> sketch_;
  History history_;
  SimTime clock_ = 0;
  NodeCore<ScriptedHost> core_;
};

TEST(NodeCore, ValidGetCompletesOnce) {
  ScriptedHost h(ConsistencyModel::kSc);
  h.Cache({7}, Timestamp{3, 0});
  const std::uint32_t slot = h.Run(OpType::kGet, 7);
  h.core().RetryParkedScWrites();
  h.core().RetryGatedOps();
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_EQ(h.done[0].slot, slot);
  EXPECT_EQ(h.done[0].route, OpRoute::kCache);
  EXPECT_EQ(h.done[0].value, "c7");
  EXPECT_EQ(h.done[0].ts, (Timestamp{3, 0}));
  EXPECT_EQ(h.core().counters().completed, 1u);
  EXPECT_EQ(h.core().counters().hit_completed, 1u);
  EXPECT_TRUE(h.core().slot(slot).idle);
  EXPECT_EQ(h.engine().stats().reads_hit, 1u);
}

TEST(NodeCore, GetOnFillingEntryParksUntilTheFill) {
  ScriptedHost h(ConsistencyModel::kLin);
  h.Cache({7}, Timestamp{}, /*fill=*/false);
  const std::uint32_t slot = h.Run(OpType::kGet, 7);
  EXPECT_TRUE(h.done.empty());
  EXPECT_FALSE(h.core().slot(slot).idle);
  EXPECT_FALSE(h.engine().Quiescent());

  h.cache().Fill(7, "filled", Timestamp{5, 2});
  h.engine().OnFilled(7);
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_EQ(h.done[0].route, OpRoute::kCache);
  EXPECT_EQ(h.done[0].value, "filled");
  EXPECT_EQ(h.done[0].ts, (Timestamp{5, 2}));
  EXPECT_TRUE(h.core().slot(slot).idle);
}

TEST(NodeCore, CreditParkedScPutsResumeInFifoOrder) {
  ScriptedHost h(ConsistencyModel::kSc);
  h.Cache({1, 2, 3}, Timestamp{1, 0});
  h.credits = 0;
  const std::uint32_t a = h.Run(OpType::kPut, 2, "a");
  const std::uint32_t b = h.Run(OpType::kPut, 1, "b");
  const std::uint32_t c = h.Run(OpType::kPut, 3, "c");
  EXPECT_TRUE(h.done.empty());
  EXPECT_EQ(h.core().credit_parked(), 3u);
  EXPECT_EQ(h.core().counters().sc_credit_stalls, 3u);

  h.credits = 1;  // one broadcast's worth: only the oldest write starts
  h.core().RetryParkedScWrites();
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_EQ(h.done[0].slot, a);
  EXPECT_EQ(h.core().credit_parked(), 2u);

  h.credits = 2;
  h.core().RetryParkedScWrites();
  ASSERT_EQ(h.done.size(), 3u);
  EXPECT_EQ(h.done[1].slot, b);
  EXPECT_EQ(h.done[2].slot, c);
  for (const ScriptedHost::Done& d : h.done) {
    EXPECT_EQ(d.route, OpRoute::kCache);
  }
  EXPECT_EQ(h.core().counters().sc_credit_stalls, 3u);  // a retry is no new stall
  EXPECT_EQ(h.core().credit_parked(), 0u);
  const std::vector<std::pair<std::uint32_t, OpPark>> order = {
      {a, OpPark::kCredit}, {b, OpPark::kCredit}, {c, OpPark::kCredit}};
  EXPECT_EQ(h.parks, order);
  EXPECT_EQ(h.unparks, order);
}

TEST(NodeCore, CreditParkedPutWhoseKeyLeftTakesTheMissPath) {
  ScriptedHost h(ConsistencyModel::kSc);
  h.Cache({4}, Timestamp{1, 0});
  h.credits = 0;
  const std::uint32_t slot = h.Run(OpType::kPut, 4, "late");
  ASSERT_EQ(h.core().credit_parked(), 1u);

  SymmetricCache::Eviction dirty;
  h.cache().Evict(4, &dirty);  // an epoch dropped the key meanwhile
  h.credits = 1;
  h.core().RetryParkedScWrites();
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_EQ(h.done[0].slot, slot);
  EXPECT_EQ(h.done[0].route, OpRoute::kMiss);
  EXPECT_EQ(h.core().counters().miss_completed, 1u);
  EXPECT_EQ(h.credits, 1);  // no update was broadcast
  Value stored;
  ASSERT_TRUE(h.shard().Get(4, &stored));
  EXPECT_EQ(stored, "late");
}

TEST(NodeCore, CreditParkedPutWithNoShardInHandIsShipped) {
  ScriptedHost h(ConsistencyModel::kSc);
  h.Cache({4}, Timestamp{1, 0});
  h.credits = 0;
  h.shard_in_hand = false;
  const std::uint32_t slot = h.Run(OpType::kPut, 4, "late");
  SymmetricCache::Eviction dirty;
  h.cache().Evict(4, &dirty);
  h.credits = 1;
  h.core().RetryParkedScWrites();
  EXPECT_TRUE(h.done.empty());
  EXPECT_EQ(h.sent, std::vector<std::uint32_t>{slot});
}

void ExpectGatedOpWaitsForTheGate(OpType type) {
  ScriptedHost h(ConsistencyModel::kSc);
  constexpr Key kKey = 9;
  h.shard().MarkCacheResident(kKey);
  const std::uint32_t slot = h.Run(type, kKey, "w");
  EXPECT_TRUE(h.done.empty());
  EXPECT_EQ(h.core().gated_parked(), 1u);
  EXPECT_EQ(h.core().counters().gate_retries, 1u);

  // Still gated: the retry parks it again without counting a new encounter.
  EXPECT_FALSE(h.core().RetryGatedOps());
  EXPECT_FALSE(h.core().RetryGatedOps());
  EXPECT_EQ(h.core().gated_parked(), 1u);
  EXPECT_EQ(h.core().counters().gate_retries, 1u);
  EXPECT_TRUE(h.unparks.empty());

  h.shard().ClearCacheResident(kKey);
  EXPECT_TRUE(h.core().RetryGatedOps());
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_EQ(h.done[0].slot, slot);
  EXPECT_EQ(h.done[0].route, OpRoute::kMiss);
  EXPECT_TRUE(h.unparks.empty());  // it completed on the spot
  EXPECT_EQ(h.core().gated_parked(), 0u);
  EXPECT_EQ(h.core().counters().gate_retries, 1u);
  EXPECT_FALSE(h.core().RetryGatedOps());  // nothing left to retry
  if (type == OpType::kGet) {
    EXPECT_EQ(h.done[0].value, SynthesizeValue(kKey, 8));
  } else {
    Value stored;
    ASSERT_TRUE(h.shard().Get(kKey, &stored));
    EXPECT_EQ(stored, "w");
  }
}

TEST(NodeCore, GatedGetParksUntilTheGateLifts) {
  ExpectGatedOpWaitsForTheGate(OpType::kGet);
}

TEST(NodeCore, GatedPutParksUntilTheGateLifts) {
  ExpectGatedOpWaitsForTheGate(OpType::kPut);
}

TEST(NodeCore, HostParkedOpCountsOnceAndReroutesThroughTheCache) {
  // A ranked host parks an RPC the home bounced; the retry finds the key
  // admitted into this cache by then and completes it as a hit.
  ScriptedHost h(ConsistencyModel::kSc);
  h.shard_in_hand = false;
  const std::uint32_t slot = h.Run(OpType::kGet, 11);
  ASSERT_EQ(h.sent, std::vector<std::uint32_t>{slot});
  h.core().ParkGated(slot);
  EXPECT_EQ(h.core().counters().gate_retries, 1u);
  h.Cache({11}, Timestamp{2, 0});
  EXPECT_TRUE(h.core().RetryGatedOps());
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_EQ(h.done[0].route, OpRoute::kCache);
  EXPECT_EQ(h.done[0].value, "c11");
  EXPECT_TRUE(h.unparks.empty());  // it completed on the spot
}

TEST(NodeCore, EachCompletionRecordsItsExactHistoryOp) {
  ScriptedHost h(ConsistencyModel::kSc);
  h.Cache({7}, Timestamp{3, 0});
  const std::uint32_t get_hit = h.Run(OpType::kGet, 7);       // invoke 1, complete 2
  const std::uint32_t put_hit = h.Run(OpType::kPut, 7, "p");  // invoke 3, complete 4
  h.core().Release(get_hit);
  h.core().Release(put_hit);
  const std::uint32_t get_miss = h.Run(OpType::kGet, 20);  // invoke 5, complete 6
  EXPECT_EQ(get_miss, put_hit);  // the most recently released slot

  const std::vector<HistoryOp>& ops = h.history().ops();
  ASSERT_EQ(ops.size(), 3u);
  const auto expect = [](const HistoryOp& got, SessionId session, OpType type, Key key,
                         const Value& value, Timestamp ts, SimTime invoke,
                         SimTime complete) {
    EXPECT_EQ(got.session, session);
    EXPECT_EQ(got.type, type);
    EXPECT_EQ(got.key, key);
    EXPECT_EQ(got.value, value);
    EXPECT_EQ(got.ts, ts);
    EXPECT_EQ(got.invoke, invoke);
    EXPECT_EQ(got.complete, complete);
  };
  expect(ops[0], SessionIdOf(kSelf, get_hit), OpType::kGet, 7, "c7", Timestamp{3, 0}, 1,
         2);
  expect(ops[1], SessionIdOf(kSelf, put_hit), OpType::kPut, 7, "p", Timestamp{4, kSelf},
         3, 4);
  expect(ops[2], SessionIdOf(kSelf, get_miss), OpType::kGet, 20, SynthesizeValue(20, 8),
         Timestamp{}, 5, 6);
  EXPECT_EQ(h.core().latency().count(), 3u);
  EXPECT_EQ(h.core().latency().max(), 1u);  // one clock tick from issue to completion
}

// --- The home side ---

TEST(NodeCoreHome, WritebackDropsTheL1CopyThenAppliesToTheShard) {
  ScriptedHost h(ConsistencyModel::kSc, /*l1_capacity=*/4);
  h.l1().Fill(5, "old", Timestamp{1, 0});
  HotSetHost& home = h.core();
  home.ApplyWriteback(SymmetricCache::Eviction{5, "flushed", Timestamp{6, 2}});
  EXPECT_FALSE(h.l1().Contains(5));
  Value value;
  Timestamp ts;
  ASSERT_TRUE(h.shard().Get(5, &value, &ts));
  EXPECT_EQ(value, "flushed");
  EXPECT_EQ(ts, (Timestamp{6, 2}));
}

TEST(NodeCoreHome, GateAndSnapshotParksShardOpsUntilLiftGate) {
  ScriptedHost h(ConsistencyModel::kSc);
  constexpr Key kKey = 12;
  Timestamp ts;
  h.shard().Apply(kKey, "v3", Timestamp{3, 1});
  HotSetHost& home = h.core();
  const HotSetHost::FillSnapshot snap = home.GateAndSnapshot(kKey);
  EXPECT_EQ(snap.value, "v3");
  EXPECT_EQ(snap.ts, (Timestamp{3, 1}));
  bool resident = false;
  ASSERT_TRUE(h.shard().PeekTimestamp(kKey, HashKey(kKey), &ts, &resident));
  EXPECT_TRUE(resident);

  const std::uint32_t slot = h.Run(OpType::kGet, kKey);
  EXPECT_EQ(h.core().gated_parked(), 1u);
  EXPECT_TRUE(h.lifted.empty());

  home.LiftGate(kKey);
  ASSERT_TRUE(h.shard().PeekTimestamp(kKey, HashKey(kKey), &ts, &resident));
  EXPECT_FALSE(resident);
  EXPECT_EQ(h.lifted, std::vector<Key>{kKey});
  EXPECT_EQ(h.core().gated_parked(), 1u);  // the host's retry pass releases it
  EXPECT_TRUE(h.core().RetryGatedOps());
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_EQ(h.done[0].slot, slot);
  EXPECT_EQ(h.done[0].value, "v3");
}

TEST(NodeCoreHome, PublishingGoesToTheHost) {
  ScriptedHost h(ConsistencyModel::kSc);
  HotSetHost& home = h.core();
  home.PublishFills({FillMsg{3, "a", Timestamp{}, 1}, FillMsg{8, "b", Timestamp{}, 1}});
  home.PublishInstalled(EpochInstalledMsg{1});
  EXPECT_EQ(h.fills_published, (std::vector<Key>{3, 8}));
  EXPECT_EQ(h.installs_published, std::vector<std::uint64_t>{1});
}

TEST(NodeCoreHome, AGatedServeWritesNothingAndAServedPutDropsTheL1Copy) {
  ScriptedHost h(ConsistencyModel::kSc, /*l1_capacity=*/4);
  constexpr Key kKey = 21;
  h.shard().MarkCacheResident(kKey);
  h.l1().Fill(kKey, "l1", Timestamp{1, 0});
  Value value;
  Timestamp ts;
  const RpcRequest put{.op = OpType::kPut, .key = kKey, .value = "peer"};
  const RpcRequest get{.op = OpType::kGet, .key = kKey, .value = {}};
  EXPECT_FALSE(h.core().ServeShardOp(put, &value, &ts));
  EXPECT_FALSE(h.core().ServeShardOp(get, &value, &ts));
  Value stored;
  ASSERT_TRUE(h.shard().Get(kKey, &stored));
  EXPECT_EQ(stored, SynthesizeValue(kKey, 8));  // the gated PUT wrote nothing
  EXPECT_TRUE(h.l1().Contains(kKey));

  h.shard().ClearCacheResident(kKey);
  ASSERT_TRUE(h.core().ServeShardOp(put, &value, &ts));
  EXPECT_FALSE(h.l1().Contains(kKey));
  ASSERT_TRUE(h.shard().Get(kKey, &stored));
  EXPECT_EQ(stored, "peer");

  const Timestamp written = ts;
  h.l1().Fill(kKey, "peer", written);
  ASSERT_TRUE(h.core().ServeShardOp(get, &value, &ts));
  EXPECT_EQ(value, "peer");
  EXPECT_EQ(ts, written);
  EXPECT_TRUE(h.l1().Contains(kKey));  // a served GET leaves the copy alone
}

TEST(NodeCoreHome, EveryInboundMessageDropsTheL1Copy) {
  ScriptedHost h(ConsistencyModel::kLin, /*l1_capacity=*/8);
  for (const Key key : {1, 2, 3, 4, 5}) {
    h.l1().Fill(key, "l1", Timestamp{1, 0});
  }
  h.core().OnUpdate(0, UpdateMsg{1, "u", Timestamp{2, 0}});
  h.core().OnInvalidate(0, InvalidateMsg{2, Timestamp{2, 0}});
  h.core().OnFill(FillMsg{3, "f", Timestamp{2, 0}, 1});
  h.core().OnAnnounce(HotSetAnnounceMsg{1, {4}});
  EXPECT_FALSE(h.l1().Contains(1));
  EXPECT_FALSE(h.l1().Contains(2));
  EXPECT_FALSE(h.l1().Contains(3));
  EXPECT_FALSE(h.l1().Contains(4));
  EXPECT_TRUE(h.l1().Contains(5));
  // The update of an uncached key homed here lands in the shard.
  Value stored;
  ASSERT_TRUE(h.shard().Get(1, &stored));
  EXPECT_EQ(stored, "u");
  EXPECT_FALSE(h.core().DriveDeferred());  // no manager, nothing deferred
}

// --- The L1 rules ---

// A GET miss on `key` that the host ships and completes itself, as a ranked
// host does with an RPC response.
std::uint32_t ShippedGet(ScriptedHost& h, Key key) {
  h.shard_in_hand = false;
  const std::uint32_t slot = h.Run(OpType::kGet, key);
  h.shard_in_hand = true;
  return slot;
}

TEST(NodeCoreL1, AdmitsAMissReadAfterTwoProvenSightings) {
  ScriptedHost h(ConsistencyModel::kSc, /*l1_capacity=*/4);
  h.shard().Apply(30, "v", Timestamp{2, 0});
  h.core().Release(h.Run(OpType::kGet, 30));
  EXPECT_FALSE(h.l1().Contains(30));  // one sighting proves nothing
  h.core().Release(h.Run(OpType::kGet, 30));
  EXPECT_TRUE(h.l1().Contains(30));
  h.Run(OpType::kGet, 30);
  ASSERT_EQ(h.done.size(), 3u);
  EXPECT_EQ(h.done[0].route, OpRoute::kMiss);
  EXPECT_EQ(h.done[1].route, OpRoute::kMiss);
  EXPECT_EQ(h.done[2].route, OpRoute::kL1);
  EXPECT_EQ(h.done[2].value, "v");
  EXPECT_EQ(h.done[2].ts, (Timestamp{2, 0}));
}

TEST(NodeCoreL1, NeverAdmitsASymmetricCacheKey) {
  // The key entered the symmetric cache while its reads were out on the
  // wire: their responses are authoritative misses, but the symmetric tier
  // owns the key now.
  ScriptedHost h(ConsistencyModel::kSc, /*l1_capacity=*/4);
  const std::uint32_t a = ShippedGet(h, 31);
  const std::uint32_t b = ShippedGet(h, 31);
  h.Cache({31}, Timestamp{1, 0});
  h.core().Complete(a, "v", Timestamp{1, 0}, OpRoute::kMiss);
  h.core().Complete(b, "v", Timestamp{1, 0}, OpRoute::kMiss);
  EXPECT_FALSE(h.l1().Contains(31));
  EXPECT_EQ(h.l1().stats().fills, 0u);
}

TEST(NodeCoreL1, LinAdmitsOnlyKeysItCanValidateInPlace) {
  // Ranked Lin: a remote home is RPC-only, so a hit could not be validated.
  ScriptedHost h(ConsistencyModel::kLin, /*l1_capacity=*/4);
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t slot = ShippedGet(h, 32);
    h.shard_in_hand = false;
    h.core().Complete(slot, "v", Timestamp{1, 0}, OpRoute::kMiss);
    h.shard_in_hand = true;
    h.core().Release(slot);
  }
  EXPECT_EQ(h.l1().stats().fills, 0u);
  h.core().Release(h.Run(OpType::kGet, 32));
  h.core().Release(h.Run(OpType::kGet, 32));
  EXPECT_TRUE(h.l1().Contains(32));  // once the home is in hand, it admits
}

TEST(NodeCoreL1, APutCompletionDropsAFillThatRacedIt) {
  // A PUT drops the key at routing, then waits on its home.  A GET that read
  // the shard before the write completes first and refills the L1 with the
  // old value; the PUT's completion must drop that copy again, or the next
  // GET is an L1 hit on a value the write already replaced.
  ScriptedHost h(ConsistencyModel::kSc, /*l1_capacity=*/4);
  constexpr Key kKey = 40;
  const std::uint32_t first = ShippedGet(h, kKey);
  h.core().Complete(first, "old", Timestamp{1, 0}, OpRoute::kMiss);  // one sighting
  h.core().Release(first);

  h.shard_in_hand = false;
  const std::uint32_t put = h.Run(OpType::kPut, kKey, "new");
  const std::uint32_t get = h.Run(OpType::kGet, kKey);
  h.shard_in_hand = true;
  EXPECT_EQ(h.sent, (std::vector<std::uint32_t>{first, put, get}));

  h.core().Complete(get, "old", Timestamp{1, 0}, OpRoute::kMiss);
  ASSERT_TRUE(h.l1().Contains(kKey));  // the raced refill
  h.core().Complete(put, "new", Timestamp{2, kSelf}, OpRoute::kMiss);
  EXPECT_FALSE(h.l1().Contains(kKey));

  h.Run(OpType::kGet, kKey);
  EXPECT_NE(h.done.back().route, OpRoute::kL1);
}

TEST(NodeCoreDeathTest, SessionIdsStopAtTheirPerNodeBound) {
  EXPECT_NE(SessionIdOf(0, kMaxSessionsPerNode - 1), SessionIdOf(1, 0));
  EXPECT_DEATH(SessionIdOf(0, kMaxSessionsPerNode), "kMaxSessionsPerNode");
  // The core computes every slot's id once, at Acquire: one slot past the
  // bound would share node 1's first session id.
  EXPECT_DEATH(
      {
        ScriptedHost h(ConsistencyModel::kSc);
        for (std::uint32_t i = 0; i <= kMaxSessionsPerNode; ++i) {
          h.core().Acquire();
        }
      },
      "kMaxSessionsPerNode");
}

TEST(NodeCoreDeathTest, ServeShardOpRefusesAKeyHomedElsewhere) {
  // A peer's request is input from the wire: a decodable request for a key
  // this node does not home must not read or write its shard.
  EXPECT_DEATH(
      {
        ScriptedHost h(ConsistencyModel::kSc);
        h.home_here = false;
        Value value;
        Timestamp ts;
        h.core().ServeShardOp(
            RpcRequest{.op = OpType::kPut, .key = 3, .value = "stray"}, &value, &ts);
      },
      "shard != nullptr");
}

}  // namespace
}  // namespace cckvs
