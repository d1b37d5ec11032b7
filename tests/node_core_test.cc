// NodeCore (cckvs/node_core.h) alone, driven by a scripted host: the route,
// both park rings, completion counters and the history record, without a
// simulator or a live rack around them.

#include "src/cckvs/node_core.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash.h"
#include "src/protocol/engine.h"
#include "src/store/partition.h"

namespace cckvs {
namespace {

constexpr NodeId kSelf = 1;

// Runs every CPU stage inline, hands out one shard for every home, and counts
// broadcast credits: each update the engine posts spends one.
class ScriptedHost final : public MessageSink, private NodeHostHooks {
 public:
  struct Done {
    std::uint32_t slot;
    OpRoute route;
    Value value;
    Timestamp ts;
  };

  explicit ScriptedHost(ConsistencyModel model) : cache_(16), core_(this, kSelf) {
    PartitionConfig pc;
    pc.node_id = kSelf;
    pc.synthesize = [](Key key) { return SynthesizeValue(key, 8); };
    shard_ = std::make_unique<Partition>(pc);
    if (model == ConsistencyModel::kLin) {
      engine_ = std::make_unique<LinEngine>(kSelf, /*num_nodes=*/1, &cache_, this);
    } else {
      engine_ = std::make_unique<ScEngine>(kSelf, /*num_nodes=*/2, &cache_, this);
    }
    core_.Attach({.cache = &cache_, .engine = engine_.get(), .history = &history_});
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
  const History& history() const { return history_; }

  int credits = 1 << 20;
  std::vector<Done> done;
  std::vector<std::uint32_t> sent;  // SendMiss
  std::vector<std::pair<std::uint32_t, OpPark>> parks;
  std::vector<std::pair<std::uint32_t, OpPark>> unparks;
  bool shard_in_hand = true;

  void BroadcastUpdate(const UpdateMsg&) override { --credits; }
  void BroadcastInvalidate(const InvalidateMsg&) override {}
  void SendAck(NodeId, const AckMsg&) override {}

 private:
  friend class NodeCore<ScriptedHost>;
  static constexpr bool kInlineCpu = true;
  static constexpr bool kRecordsLatency = true;
  Partition* ShardFor(NodeId /*home*/) { return shard_in_hand ? shard_.get() : nullptr; }
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

}  // namespace
}  // namespace cckvs
