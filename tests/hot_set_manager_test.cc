// Unit tests for the hot-set subsystem (topk::HotSetManager): protocol-safe
// epoch transitions, deferred evictions, the fill stash, the install barrier
// and the coordinator's unsettled-key filter.  The manager is driven directly
// with a real cache and engine; outgoing protocol messages land in a
// recording sink, as in protocol_test.cc.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cache/symmetric_cache.h"
#include "src/protocol/engine.h"
#include "src/store/partition.h"
#include "src/topk/hot_set_host.h"
#include "src/topk/hot_set_manager.h"

namespace cckvs {
namespace {

// Collects broadcasts; the test feeds acks back by hand.
class RecordingSink : public MessageSink {
 public:
  void BroadcastUpdate(const UpdateMsg& msg) override { updates.push_back(msg); }
  void BroadcastInvalidate(const InvalidateMsg& msg) override {
    invalidations.push_back(msg);
  }
  void SendAck(NodeId to, const AckMsg& msg) override {
    (void)to;
    acks.push_back(msg);
  }

  std::vector<UpdateMsg> updates;
  std::vector<InvalidateMsg> invalidations;
  std::vector<AckMsg> acks;
};

// Two-"node" world from node 0's perspective: keys with even ids home at 0.
constexpr int kNodes = 2;
NodeId HomeOf(Key key) { return static_cast<NodeId>(key % kNodes); }

struct Harness {
  explicit Harness(ConsistencyModel model, bool coordinator = false,
                   std::uint64_t requests_per_epoch = 4,
                   std::size_t hot_set_size = 8) {
    cache = std::make_unique<SymmetricCache>(hot_set_size);
    if (model == ConsistencyModel::kLin) {
      engine = std::make_unique<LinEngine>(0, kNodes, cache.get(), &sink);
    } else {
      engine = std::make_unique<ScEngine>(0, kNodes, cache.get(), &sink);
    }
    HotSetManagerConfig hc;
    hc.self = 0;
    hc.num_nodes = kNodes;
    hc.coordinator = coordinator;
    hc.epoch.hot_set_size = hot_set_size;
    hc.epoch.requests_per_epoch = requests_per_epoch;
    hc.epoch.sample_probability = 1.0;
    hc.home_of = HomeOf;
    mgr = std::make_unique<HotSetManager>(hc, cache.get(), engine.get());
  }

  void Seed(std::initializer_list<Key> keys) {
    cache->InstallHotSet(std::vector<Key>(keys));
    for (const Key k : keys) {
      cache->Fill(k, "seed", Timestamp{1, 1});
    }
  }

  RecordingSink sink;
  std::unique_ptr<SymmetricCache> cache;
  std::unique_ptr<CoherenceEngine> engine;
  std::unique_ptr<HotSetManager> mgr;
};

TEST(HotSetManager, ApplySplitsEvictionsAdmissionsAndDuties) {
  Harness h(ConsistencyModel::kSc);
  h.Seed({2, 3, 4});
  h.cache->Find(2)->dirty = true;  // pretend a hot write landed

  const auto t = h.mgr->Apply(HotSetAnnounceMsg{1, {4, 6, 7}});
  // Key 2: evicted, dirty, homed here -> write-back + gate; key 3: evicted,
  // clean, homed at the peer -> dropped.
  ASSERT_EQ(t.home_writebacks.size(), 1u);
  EXPECT_EQ(t.home_writebacks[0].key, 2u);
  EXPECT_TRUE(h.mgr->ShardGated(2));
  EXPECT_FALSE(h.mgr->ShardGated(3));
  EXPECT_EQ(h.cache->Find(2), nullptr);
  EXPECT_EQ(h.cache->Find(3), nullptr);
  // Key 4 survives with its value; 6 and 7 enter kFilling; only 6 homes here.
  EXPECT_EQ(h.cache->Find(4)->state(), CacheState::kValid);
  EXPECT_EQ(h.cache->Find(6)->state(), CacheState::kFilling);
  EXPECT_EQ(t.fill_duties, std::vector<Key>{6});
  // Nothing deferred: the install completed.
  EXPECT_TRUE(t.installed_advanced);
  EXPECT_EQ(t.installed_epoch, 1u);
  EXPECT_EQ(h.mgr->installed_epoch(), 1u);
}

TEST(HotSetManager, BarrierLiftsGateOnlyAfterAllPeersInstall) {
  Harness h(ConsistencyModel::kSc);
  h.Seed({2});
  auto t = h.mgr->Apply(HotSetAnnounceMsg{1, {3}});
  EXPECT_TRUE(t.installed_advanced);
  EXPECT_TRUE(h.mgr->ShardGated(2));
  EXPECT_TRUE(t.ungated.empty());  // peer has not confirmed epoch 1

  const auto ungated = h.mgr->OnPeerInstalled(1, 1);
  EXPECT_EQ(ungated, std::vector<Key>{2});
  EXPECT_FALSE(h.mgr->ShardGated(2));
}

TEST(HotSetManager, LinWriteInFlightDefersEviction) {
  Harness h(ConsistencyModel::kLin);
  h.Seed({2});
  h.engine->Write(2, "w", nullptr);  // invalidations out, acks pending
  ASSERT_EQ(h.sink.invalidations.size(), 1u);

  auto t = h.mgr->Apply(HotSetAnnounceMsg{1, {4}});
  EXPECT_TRUE(h.mgr->HasDeferred());
  EXPECT_FALSE(t.installed_advanced);  // the epoch is not installed yet
  EXPECT_NE(h.cache->Find(2), nullptr);
  EXPECT_FALSE(h.mgr->ShardGated(2));  // not evicted, so not pending a clear

  // The ack completes the write; the deferred eviction can now go through.
  h.engine->OnAck(1, AckMsg{2, h.sink.invalidations[0].ts});
  t = h.mgr->RetryDeferred();
  EXPECT_FALSE(h.mgr->HasDeferred());
  EXPECT_TRUE(t.installed_advanced);
  ASSERT_EQ(t.home_writebacks.size(), 1u);  // the completed write is dirty
  EXPECT_EQ(t.home_writebacks[0].key, 2u);
  EXPECT_TRUE(h.mgr->ShardGated(2));
  EXPECT_EQ(h.cache->Find(2), nullptr);
}

TEST(HotSetManager, ParkedReaderDefersEvictionUntilFill) {
  Harness h(ConsistencyModel::kSc);
  auto t0 = h.mgr->Apply(HotSetAnnounceMsg{1, {3}});  // admitted, kFilling
  (void)t0;
  bool read_done = false;
  Value read_value;
  h.engine->Read(3, nullptr, nullptr, [&](const Value& v, Timestamp) {
    read_done = true;
    read_value = v;
  });
  EXPECT_FALSE(read_done);  // parked on the unfilled entry

  auto t = h.mgr->Apply(HotSetAnnounceMsg{2, {5}});  // epoch churns 3 out
  EXPECT_TRUE(h.mgr->HasDeferred());
  EXPECT_FALSE(t.installed_advanced);

  // The fill (sent when the home installed epoch 1) wakes the reader...
  h.mgr->ApplyFill(FillMsg{3, "filled", Timestamp{2, 1}, 1});
  EXPECT_TRUE(read_done);
  EXPECT_EQ(read_value, "filled");
  // ...and the deferred eviction drains.
  t = h.mgr->RetryDeferred();
  EXPECT_FALSE(h.mgr->HasDeferred());
  EXPECT_TRUE(t.installed_advanced);
  EXPECT_EQ(h.cache->Find(3), nullptr);
}

TEST(HotSetManager, RetargetedDeferredKeyKeepsItsWaiters) {
  // Key 3 is admitted in epoch 1 and still unfilled when epoch 2 drops it: a
  // parked reader and a queued write defer its eviction.  Epoch 3 targets the
  // key again before its fill lands.  The entry stays, waiters and all, and
  // the fill completes both.
  for (auto model : {ConsistencyModel::kSc, ConsistencyModel::kLin}) {
    SCOPED_TRACE(ToString(model));
    Harness h(model);
    h.mgr->Apply(HotSetAnnounceMsg{1, {3}});  // admitted, kFilling
    bool read_done = false;
    Value read_value;
    h.engine->Read(3, nullptr, nullptr, [&](const Value& v, Timestamp) {
      read_done = true;
      read_value = v;
    });
    bool write_done = false;
    h.engine->Write(3, "queued", [&] { write_done = true; });  // queues

    auto t = h.mgr->Apply(HotSetAnnounceMsg{2, {5}});  // drops key 3
    EXPECT_TRUE(h.mgr->HasDeferred());
    EXPECT_FALSE(t.installed_advanced);
    t = h.mgr->Apply(HotSetAnnounceMsg{3, {3, 5}});  // and takes it back
    EXPECT_FALSE(h.mgr->HasDeferred());
    EXPECT_TRUE(t.installed_advanced);
    ASSERT_NE(h.cache->Find(3), nullptr);
    EXPECT_TRUE(h.cache->Find(3)->HasWaiters());
    EXPECT_FALSE(h.engine->Quiescent());

    h.mgr->ApplyFill(FillMsg{3, "filled", Timestamp{2, 1}, 1});
    EXPECT_TRUE(read_done);
    EXPECT_EQ(read_value, "filled");
    if (model == ConsistencyModel::kLin) {
      // The queued write started at the fill; its ack round completes it.
      EXPECT_FALSE(write_done);
      ASSERT_EQ(h.sink.invalidations.size(), 1u);
      h.engine->OnAck(1, AckMsg{3, h.sink.invalidations[0].ts});
    }
    EXPECT_TRUE(write_done);
    EXPECT_EQ(h.cache->Find(3)->value, "queued");
    EXPECT_EQ(h.cache->Find(3)->ts(), (Timestamp{3, 0}));
    EXPECT_TRUE(h.engine->Quiescent());
    EXPECT_TRUE(h.engine->EvictionSafe(3));
  }
}

TEST(HotSetManager, FillThatBeatsItsAnnounceIsStashed) {
  Harness h(ConsistencyModel::kSc);
  // Epoch 1's announce has not arrived, but the home's fill has.
  EXPECT_FALSE(h.mgr->ApplyFill(FillMsg{5, "early", Timestamp{3, 1}, 1}));
  EXPECT_EQ(h.cache->Find(5), nullptr);

  h.mgr->Apply(HotSetAnnounceMsg{1, {5}});
  ASSERT_NE(h.cache->Find(5), nullptr);
  EXPECT_EQ(h.cache->Find(5)->state(), CacheState::kValid);
  EXPECT_EQ(h.cache->Find(5)->value, "early");
}

TEST(HotSetManager, StaleFillIsDropped) {
  Harness h(ConsistencyModel::kSc);
  h.mgr->Apply(HotSetAnnounceMsg{2, {7}});
  // A fill from epoch 1 for a key that is no longer (or never was) targeted.
  EXPECT_FALSE(h.mgr->ApplyFill(FillMsg{9, "stale", Timestamp{1, 1}, 1}));
  h.mgr->Apply(HotSetAnnounceMsg{3, {9}});
  // The stale fill must not have survived to satisfy epoch 3's admission.
  EXPECT_EQ(h.cache->Find(9)->state(), CacheState::kFilling);
}

TEST(HotSetManager, CoordinatorWithholdsUnsettledReadmissions) {
  // hot_set_size 1, epochs every 2 requests: publications are predictable.
  Harness h(ConsistencyModel::kSc, /*coordinator=*/true,
            /*requests_per_epoch=*/2, /*hot_set_size=*/1);
  EXPECT_FALSE(h.mgr->Sample(1));
  ASSERT_TRUE(h.mgr->Sample(1));  // epoch 1: {1}
  EXPECT_EQ(h.mgr->announcement().keys, std::vector<Key>{1});
  h.mgr->Apply(h.mgr->announcement());

  h.mgr->Sample(2);
  ASSERT_TRUE(h.mgr->Sample(2));  // epoch 2: {2}, key 1 dropped
  EXPECT_EQ(h.mgr->announcement().keys, std::vector<Key>{2});
  // Do NOT apply epoch 2 yet: key 1's eviction is unsettled rack-wide.

  h.mgr->Sample(1);
  ASSERT_TRUE(h.mgr->Sample(1));  // epoch 3: key 1 is hottest again...
  for (const Key k : h.mgr->announcement().keys) {
    EXPECT_NE(k, 1u) << "unsettled key must not be re-admitted";
  }

  // Settle: this node installs epoch 3 (evicting 2...), the peer confirms.
  h.mgr->Apply(h.mgr->announcement());
  h.mgr->OnPeerInstalled(1, h.mgr->announcement().epoch);
  h.mgr->Sample(1);
  ASSERT_TRUE(h.mgr->Sample(1));  // epoch 4: key 1 is eligible again
  EXPECT_EQ(h.mgr->announcement().keys, std::vector<Key>{1});
}

TEST(HotSetManager, ReadmissionCancelsPendingGateClear) {
  // Key 2 (homed here) is evicted in epoch 1 and re-admitted in epoch 2
  // before the epoch-1 barrier completes.  The straggling install
  // confirmation must NOT clear the gate: the new cached era owns it.
  Harness h(ConsistencyModel::kSc);
  h.Seed({2});
  h.mgr->Apply(HotSetAnnounceMsg{1, {4}});
  EXPECT_TRUE(h.mgr->ShardGated(2));
  const auto t = h.mgr->Apply(HotSetAnnounceMsg{2, {2, 4}});
  EXPECT_EQ(t.fill_duties, std::vector<Key>{2});
  EXPECT_FALSE(h.mgr->ShardGated(2));  // no stale pending clear remains

  const auto ungated = h.mgr->OnPeerInstalled(1, 1);  // epoch-1 straggler
  EXPECT_TRUE(ungated.empty()) << "the re-admitted key's gate must stay up";
}

// ---------------------------------------------------------------------------
// The shared host hooks: ONE transition machine, two host styles
// ---------------------------------------------------------------------------

// A fake host over a real Partition shard.  `batch_publish` mimics the sim
// host (one PublishFills call may carry many fills, shipped chunked) vs. the
// live host (per-fill broadcast); everything observable must be identical.
class FakeHost : public HotSetHost {
 public:
  explicit FakeHost(bool batch_publish) : batch_publish_(batch_publish) {
    PartitionConfig pc;
    pc.buckets = 16;
    pc.node_id = 0;
    pc.synthesize = [](Key) { return Value("shard"); };
    partition_ = std::make_unique<Partition>(pc);
  }

  void ApplyWriteback(const SymmetricCache::Eviction& ev) override {
    partition_->Apply(ev.key, ev.value, ev.ts);
    log_.push_back("writeback:" + std::to_string(ev.key));
  }
  FillSnapshot GateAndSnapshot(Key key) override {
    const Partition::ResidentSnapshot snap = partition_->MarkCacheResident(key);
    log_.push_back("gate:" + std::to_string(key));
    return FillSnapshot{snap.value, snap.ts};
  }
  void PublishFills(const std::vector<FillMsg>& fills) override {
    if (batch_publish_) {
      published_fills_.insert(published_fills_.end(), fills.begin(), fills.end());
      log_.push_back("fills:" + std::to_string(fills.size()));
    } else {
      for (const FillMsg& f : fills) {
        published_fills_.push_back(f);
        log_.push_back("fills:1");
      }
    }
  }
  void PublishInstalled(const EpochInstalledMsg& msg) override {
    installed_.push_back(msg.epoch);
    log_.push_back("installed:" + std::to_string(msg.epoch));
  }
  void LiftGate(Key key) override {
    partition_->ClearCacheResident(key);
    log_.push_back("lift:" + std::to_string(key));
  }

  bool ShardResident(Key key) const {
    Value v;
    Timestamp ts;
    bool resident = false;
    EXPECT_TRUE(partition_->Get(key, &v, &ts, &resident));
    return resident;
  }

  Partition& partition() { return *partition_; }
  const std::vector<FillMsg>& published_fills() const { return published_fills_; }
  const std::vector<std::uint64_t>& installed() const { return installed_; }
  const std::vector<std::string>& log() const { return log_; }

 private:
  bool batch_publish_;
  std::unique_ptr<Partition> partition_;
  std::vector<FillMsg> published_fills_;
  std::vector<std::uint64_t> installed_;
  std::vector<std::string> log_;
};

struct HostHarness {
  explicit HostHarness(bool batch_publish) : host(batch_publish) {
    cache = std::make_unique<SymmetricCache>(8);
    engine = std::make_unique<ScEngine>(0, kNodes, cache.get(), &sink);
    HotSetManagerConfig hc;
    hc.self = 0;
    hc.num_nodes = kNodes;
    hc.home_of = HomeOf;
    mgr = std::make_unique<HotSetManager>(hc, cache.get(), engine.get(), &host);
    cache->InstallHotSet({2});
    cache->Fill(2, "seed", Timestamp{1, 1});
    host.partition().MarkCacheResident(2);  // prefilled hot key, gate up
  }

  RecordingSink sink;
  FakeHost host;
  std::unique_ptr<SymmetricCache> cache;
  std::unique_ptr<CoherenceEngine> engine;
  std::unique_ptr<HotSetManager> mgr;
};

TEST(HotSetHostHooks, SimStyleAndLiveStyleHostsSeeTheSameTransition) {
  // Drive the identical transition sequence through a batching ("sim") host
  // and a per-fill ("live") host: key 2 (dirty, homed here) is evicted, keys
  // 4 and 6 (homed here) are admitted, the peer confirms, the gate lifts.
  HostHarness sim_style(/*batch_publish=*/true);
  HostHarness live_style(/*batch_publish=*/false);
  for (HostHarness* h : {&sim_style, &live_style}) {
    h->cache->Find(2)->dirty = true;
    h->cache->Find(2)->value = "dirty-write";
    h->cache->Find(2)->value_ts = Timestamp{3, 0};
    h->mgr->DriveAnnounce(HotSetAnnounceMsg{1, {4, 6}});
    EXPECT_TRUE(h->host.ShardResident(2)) << "gate stays up until the barrier";
    EXPECT_TRUE(h->host.ShardResident(4));
    EXPECT_TRUE(h->host.ShardResident(6));
    EXPECT_EQ(h->host.installed(), std::vector<std::uint64_t>{1});
    h->mgr->DrivePeerInstalled(1, 1);
    EXPECT_FALSE(h->host.ShardResident(2)) << "barrier complete: gate lifted";
  }

  // Identical observable outcomes: write-back applied to the shard...
  for (HostHarness* h : {&sim_style, &live_style}) {
    Value v;
    Timestamp ts;
    ASSERT_TRUE(h->host.partition().Get(2, &v, &ts));
    EXPECT_EQ(v, "dirty-write");
    EXPECT_EQ(ts, (Timestamp{3, 0}));
    // ...fills snapshotted from the shard and applied locally...
    EXPECT_EQ(h->cache->Find(4)->state(), CacheState::kValid);
    EXPECT_EQ(h->cache->Find(4)->value, "shard");
    EXPECT_EQ(h->cache->Find(6)->state(), CacheState::kValid);
  }
  // ...and the same published fills, in the same order.
  ASSERT_EQ(sim_style.host.published_fills().size(), 2u);
  ASSERT_EQ(live_style.host.published_fills().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(sim_style.host.published_fills()[i].key,
              live_style.host.published_fills()[i].key);
    EXPECT_EQ(sim_style.host.published_fills()[i].value,
              live_style.host.published_fills()[i].value);
    EXPECT_EQ(sim_style.host.published_fills()[i].epoch,
              live_style.host.published_fills()[i].epoch);
  }
  // The hook sequences differ only in fill batching.
  EXPECT_EQ(sim_style.host.log(),
            (std::vector<std::string>{"writeback:2", "gate:4", "gate:6", "fills:2",
                                      "installed:1", "lift:2"}));
  EXPECT_EQ(live_style.host.log(),
            (std::vector<std::string>{"writeback:2", "gate:4", "gate:6", "fills:1",
                                      "fills:1", "installed:1", "lift:2"}));
}

TEST(HotSetHostHooks, DeferredInstallPublishesOnDriveDeferred) {
  // A Lin write in flight defers the eviction: DriveAnnounce must not publish
  // an install; DriveDeferred after the ack completes it through the hooks.
  RecordingSink sink;
  FakeHost host(/*batch_publish=*/false);
  SymmetricCache cache(4);
  LinEngine engine(0, kNodes, &cache, &sink);
  HotSetManagerConfig hc;
  hc.self = 0;
  hc.num_nodes = kNodes;
  hc.home_of = HomeOf;
  HotSetManager mgr(hc, &cache, &engine, &host);
  cache.InstallHotSet({2});
  cache.Fill(2, "seed", Timestamp{1, 1});
  host.partition().MarkCacheResident(2);

  engine.Write(2, "w", nullptr);
  ASSERT_EQ(sink.invalidations.size(), 1u);
  mgr.DriveAnnounce(HotSetAnnounceMsg{1, {4}});
  EXPECT_TRUE(mgr.HasDeferred());
  EXPECT_TRUE(host.installed().empty());

  engine.OnAck(1, AckMsg{2, sink.invalidations[0].ts});
  mgr.DriveDeferred();
  EXPECT_FALSE(mgr.HasDeferred());
  EXPECT_EQ(host.installed(), std::vector<std::uint64_t>{1});
  // The completed write's value reached the shard via the write-back hook.
  Value v;
  Timestamp ts;
  ASSERT_TRUE(host.partition().Get(2, &v, &ts));
  EXPECT_EQ(v, "w");
}

// ---------------------------------------------------------------------------
// The fill-vs-announce race (found by the model checker's transition scope)
// ---------------------------------------------------------------------------

TEST(HotSetManager, NotedUncachedUpdateSupersedesStaleFill) {
  // An update for a not-yet-admitted key was dropped before the announce
  // arrived; the stale stashed fill must not resurrect the older value.
  Harness h(ConsistencyModel::kSc);
  h.mgr->ApplyFill(FillMsg{5, "stale-fill", Timestamp{2, 1}, 1});  // stashed
  h.mgr->NoteUncachedUpdate(5, "newer-write", Timestamp{3, 0});
  h.mgr->Apply(HotSetAnnounceMsg{1, {5}});
  ASSERT_NE(h.cache->Find(5), nullptr);
  EXPECT_EQ(h.cache->Find(5)->state(), CacheState::kValid);
  EXPECT_EQ(h.cache->Find(5)->value, "newer-write");
  EXPECT_EQ(h.cache->Find(5)->ts(), (Timestamp{3, 0}));
}

TEST(HotSetManager, NotedUncachedInvalidateLeavesFillInvalidUntilItsUpdate) {
  // Only the invalidation of a newer write was seen before the announce: the
  // fill installs Invalid at the promised timestamp, and the (re-delivered)
  // update with that exact timestamp completes it — no stale Valid window.
  Harness h(ConsistencyModel::kLin);
  h.mgr->NoteUncachedInvalidate(5, Timestamp{4, 1});
  h.mgr->Apply(HotSetAnnounceMsg{1, {5}});
  h.mgr->ApplyFill(FillMsg{5, "fill", Timestamp{2, 1}, 1});
  ASSERT_NE(h.cache->Find(5), nullptr);
  EXPECT_EQ(h.cache->Find(5)->state(), CacheState::kInvalid);
  EXPECT_EQ(h.cache->Find(5)->ts(), (Timestamp{4, 1}));
  bool read_done = false;
  h.engine->Read(5, nullptr, nullptr,
                 [&](const Value&, Timestamp) { read_done = true; });
  EXPECT_FALSE(read_done) << "reads must wait for the in-flight update";
  h.engine->OnUpdate(1, UpdateMsg{5, "in-flight", Timestamp{4, 1}});
  EXPECT_TRUE(read_done);
  EXPECT_EQ(h.cache->Find(5)->state(), CacheState::kValid);
  EXPECT_EQ(h.cache->Find(5)->value, "in-flight");
}

TEST(HotSetManager, AheadRecordsArePrunedForKeysTheEpochDidNotAdmit) {
  Harness h(ConsistencyModel::kSc);
  h.mgr->NoteUncachedUpdate(9, "x", Timestamp{5, 1});
  h.mgr->Apply(HotSetAnnounceMsg{1, {5}});  // 9 not admitted
  EXPECT_TRUE(h.mgr->SeenAheadTraffic().empty());
}

TEST(HotSetManager, StaleAnnounceIsIgnored) {
  Harness h(ConsistencyModel::kSc);
  h.mgr->Apply(HotSetAnnounceMsg{2, {4}});
  const auto t = h.mgr->Apply(HotSetAnnounceMsg{1, {6}});
  EXPECT_TRUE(t.fill_duties.empty());
  EXPECT_EQ(h.cache->Find(6), nullptr);
  EXPECT_NE(h.cache->Find(4), nullptr);
}

}  // namespace
}  // namespace cckvs
