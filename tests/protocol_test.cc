// Unit tests for the SC and Lin coherence engines, driven through a scripted
// message fabric that can delay and reorder deliveries arbitrarily (UD gives no
// ordering guarantees).

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/symmetric_cache.h"
#include "src/common/rng.h"
#include "src/protocol/engine.h"

namespace cckvs {
namespace {

constexpr Key kKey = 77;

// A fabric connecting N engines; messages queue per destination and are
// delivered under test control (in order, reordered, or selectively).
class FakeFabric {
 public:
  explicit FakeFabric(int n, ConsistencyModel model) : n_(n) {
    for (int i = 0; i < n; ++i) {
      caches_.push_back(std::make_unique<SymmetricCache>(4));
      caches_.back()->InstallHotSet({kKey});
      caches_.back()->Fill(kKey, "init", Timestamp{0, 0});
      sinks_.push_back(std::make_unique<Sink>(this, static_cast<NodeId>(i)));
    }
    for (int i = 0; i < n; ++i) {
      if (model == ConsistencyModel::kSc) {
        engines_.push_back(std::make_unique<ScEngine>(static_cast<NodeId>(i), n,
                                                      caches_[static_cast<std::size_t>(i)].get(),
                                                      sinks_[static_cast<std::size_t>(i)].get()));
      } else {
        engines_.push_back(std::make_unique<LinEngine>(static_cast<NodeId>(i), n,
                                                       caches_[static_cast<std::size_t>(i)].get(),
                                                       sinks_[static_cast<std::size_t>(i)].get()));
      }
    }
  }

  struct Msg {
    enum class Type { kUpd, kInv, kAck } type;
    NodeId from;
    NodeId to;
    UpdateMsg upd;
    InvalidateMsg inv;
    AckMsg ack;
  };

  CoherenceEngine& engine(int i) { return *engines_[static_cast<std::size_t>(i)]; }
  SymmetricCache& cache(int i) { return *caches_[static_cast<std::size_t>(i)]; }
  CacheEntry& entry(int i) {
    return *caches_[static_cast<std::size_t>(i)]->Find(kKey);
  }
  CacheEntry& entryOf(int i, Key key) {
    return *caches_[static_cast<std::size_t>(i)]->Find(key);
  }
  std::deque<Msg>& queue() { return queue_; }

  void DeliverOne(std::size_t index = 0) {
    Msg m = queue_[index];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
    switch (m.type) {
      case Msg::Type::kUpd:
        engine(m.to).OnUpdate(m.from, m.upd);
        break;
      case Msg::Type::kInv:
        engine(m.to).OnInvalidate(m.from, m.inv);
        break;
      case Msg::Type::kAck:
        engine(m.to).OnAck(m.from, m.ack);
        break;
    }
  }

  void DeliverAllInOrder() {
    while (!queue_.empty()) {
      DeliverOne(0);
    }
  }

  void DeliverAllRandomOrder(Rng& rng) {
    while (!queue_.empty()) {
      DeliverOne(rng.NextBounded(queue_.size()));
    }
  }

 private:
  class Sink final : public MessageSink {
   public:
    Sink(FakeFabric* fabric, NodeId self) : fabric_(fabric), self_(self) {}
    void BroadcastUpdate(const UpdateMsg& msg) override {
      for (int j = 0; j < fabric_->n_; ++j) {
        if (j != self_) {
          Msg m;
          m.type = Msg::Type::kUpd;
          m.from = self_;
          m.to = static_cast<NodeId>(j);
          m.upd = msg;
          fabric_->queue_.push_back(m);
        }
      }
    }
    void BroadcastInvalidate(const InvalidateMsg& msg) override {
      for (int j = 0; j < fabric_->n_; ++j) {
        if (j != self_) {
          Msg m;
          m.type = Msg::Type::kInv;
          m.from = self_;
          m.to = static_cast<NodeId>(j);
          m.inv = msg;
          fabric_->queue_.push_back(m);
        }
      }
    }
    void SendAck(NodeId to, const AckMsg& msg) override {
      Msg m;
      m.type = Msg::Type::kAck;
      m.from = self_;
      m.to = to;
      m.ack = msg;
      fabric_->queue_.push_back(m);
    }

   private:
    FakeFabric* fabric_;
    NodeId self_;
  };

  int n_;
  std::vector<std::unique_ptr<SymmetricCache>> caches_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::vector<std::unique_ptr<CoherenceEngine>> engines_;
  std::deque<Msg> queue_;
};

// ---------------------------------------------------------------------------
// SC protocol
// ---------------------------------------------------------------------------

TEST(ScProtocol, WriteAppliesLocallyImmediately) {
  FakeFabric f(3, ConsistencyModel::kSc);
  bool done = false;
  const auto r = f.engine(0).Write(kKey, "new", [&] { done = true; });
  EXPECT_EQ(r, CoherenceEngine::WriteResult::kCompleted);
  EXPECT_TRUE(done);  // SC writes are non-blocking
  EXPECT_EQ(f.entry(0).value, "new");
  EXPECT_EQ(f.entry(0).ts(), (Timestamp{1, 0}));
  // Peers have not applied yet (updates still in flight) — SC permits this.
  EXPECT_EQ(f.entry(1).value, "init");
  EXPECT_EQ(f.queue().size(), 2u);
}

TEST(ScProtocol, UpdatePropagatesToAll) {
  FakeFabric f(3, ConsistencyModel::kSc);
  f.engine(0).Write(kKey, "new", nullptr);
  f.DeliverAllInOrder();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(f.entry(i).value, "new");
    EXPECT_EQ(f.entry(i).ts(), (Timestamp{1, 0}));
  }
}

TEST(ScProtocol, ConcurrentWritesConvergeByTimestamp) {
  FakeFabric f(3, ConsistencyModel::kSc);
  f.engine(0).Write(kKey, "from-0", nullptr);  // ts {1,0}
  f.engine(1).Write(kKey, "from-1", nullptr);  // ts {1,1} — wins the tie-break
  f.DeliverAllInOrder();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(f.entry(i).value, "from-1") << "node " << i;
    EXPECT_EQ(f.entry(i).ts(), (Timestamp{1, 1}));
  }
}

TEST(ScProtocol, StaleUpdateDiscarded) {
  FakeFabric f(2, ConsistencyModel::kSc);
  f.engine(0).Write(kKey, "w1", nullptr);
  f.DeliverAllInOrder();
  // A replayed/late update with an old timestamp must not regress the entry.
  f.engine(1).OnUpdate(0, UpdateMsg{kKey, "old", Timestamp{0, 0}});
  EXPECT_EQ(f.entry(1).value, "w1");
  const auto& stats = f.engine(1).stats();
  EXPECT_EQ(stats.updates_discarded, 1u);
}

TEST(ScProtocol, RandomizedConvergence) {
  // Many concurrent writes delivered in random order: all replicas converge on
  // the max-timestamp value (write serialization via Lamport clocks).
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    FakeFabric f(4, ConsistencyModel::kSc);
    for (int w = 0; w < 6; ++w) {
      const int node = static_cast<int>(rng.NextBounded(4));
      f.engine(node).Write(kKey, "w" + std::to_string(w), nullptr);
      if (rng.NextBool(0.5) && !f.queue().empty()) {
        f.DeliverOne(rng.NextBounded(f.queue().size()));
      }
    }
    f.DeliverAllRandomOrder(rng);
    const Timestamp ts0 = f.entry(0).ts();
    const Value v0 = f.entry(0).value;
    for (int i = 1; i < 4; ++i) {
      ASSERT_EQ(f.entry(i).ts(), ts0) << "round " << round;
      ASSERT_EQ(f.entry(i).value, v0) << "round " << round;
    }
  }
}

TEST(ScProtocol, ReadsAlwaysHitValidEntries) {
  FakeFabric f(2, ConsistencyModel::kSc);
  Value v;
  Timestamp ts;
  EXPECT_EQ(f.engine(0).Read(kKey, &v, &ts, nullptr),
            CoherenceEngine::ReadResult::kHit);
  EXPECT_EQ(v, "init");
}

// ---------------------------------------------------------------------------
// Lin protocol
// ---------------------------------------------------------------------------

TEST(LinProtocol, WriteBlocksUntilAllAcks) {
  FakeFabric f(3, ConsistencyModel::kLin);
  bool done = false;
  const auto r = f.engine(0).Write(kKey, "new", [&] { done = true; });
  EXPECT_EQ(r, CoherenceEngine::WriteResult::kPending);
  EXPECT_FALSE(done);
  EXPECT_EQ(f.entry(0).state(), CacheState::kWrite);
  EXPECT_EQ(f.queue().size(), 2u);  // two invalidations
  f.DeliverOne(0);                  // inv at node 1 -> ack queued
  EXPECT_FALSE(done);
  EXPECT_EQ(f.entry(1).state(), CacheState::kInvalid);
  f.DeliverAllInOrder();  // second inv, both acks, then updates
  EXPECT_TRUE(done);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(f.entry(i).state(), CacheState::kValid);
    EXPECT_EQ(f.entry(i).value, "new");
  }
}

TEST(LinProtocol, ReadBlocksOnInvalidEntry) {
  FakeFabric f(3, ConsistencyModel::kLin);
  f.engine(0).Write(kKey, "new", nullptr);
  f.DeliverOne(0);  // node 1 invalidated
  Value read_value;
  bool resumed = false;
  const auto r = f.engine(1).Read(kKey, nullptr, nullptr,
                                  [&](const Value& v, Timestamp) {
                                    resumed = true;
                                    read_value = v;
                                  });
  EXPECT_EQ(r, CoherenceEngine::ReadResult::kBlocked);
  f.DeliverAllInOrder();
  EXPECT_TRUE(resumed);
  EXPECT_EQ(read_value, "new");  // the blocked read observes the new value
}

TEST(LinProtocol, ReadBlocksAtWriterDuringWrite) {
  // Lin condition: a get may return a value only after the put returned, so
  // even the writer's own node must not serve the new value early.
  FakeFabric f(3, ConsistencyModel::kLin);
  f.engine(0).Write(kKey, "new", nullptr);
  bool resumed = false;
  const auto r =
      f.engine(0).Read(kKey, nullptr, nullptr, [&](const Value&, Timestamp) {
        resumed = true;
      });
  EXPECT_EQ(r, CoherenceEngine::ReadResult::kBlocked);
  f.DeliverAllInOrder();
  EXPECT_TRUE(resumed);
}

TEST(LinProtocol, StaleInvalidationStillAcked) {
  // Deadlock freedom hinges on unconditional acks.
  FakeFabric f(2, ConsistencyModel::kLin);
  f.engine(0).Write(kKey, "w", nullptr);
  f.DeliverAllInOrder();
  const auto acks_before = f.queue().size();
  f.engine(1).OnInvalidate(0, InvalidateMsg{kKey, Timestamp{0, 0}});  // stale
  EXPECT_EQ(f.queue().size(), acks_before + 1);  // ack queued anyway
  EXPECT_EQ(f.entry(1).state(), CacheState::kValid);  // but no state change
  EXPECT_GE(f.engine(1).stats().invalidations_stale, 1u);
}

TEST(LinProtocol, ConcurrentWritersHigherTimestampWins) {
  FakeFabric f(3, ConsistencyModel::kLin);
  bool done0 = false;
  bool done1 = false;
  f.engine(0).Write(kKey, "w0", [&] { done0 = true; });  // ts {1,0}
  f.engine(1).Write(kKey, "w1", [&] { done1 = true; });  // ts {1,1}
  f.DeliverAllInOrder();
  EXPECT_TRUE(done0);
  EXPECT_TRUE(done1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(f.entry(i).state(), CacheState::kValid) << "node " << i;
    EXPECT_EQ(f.entry(i).value, "w1") << "node " << i;
    EXPECT_EQ(f.entry(i).ts(), (Timestamp{1, 1}));
  }
  EXPECT_EQ(f.engine(0).stats().writes_superseded, 1u);
}

TEST(LinProtocol, UpdateOvertakingInvalidationIsSafe) {
  // UD reorders: deliver node 1's messages update-first.
  FakeFabric f(2, ConsistencyModel::kLin);
  f.engine(0).Write(kKey, "w", nullptr);
  // queue: [inv->1]; deliver it, collect ack, produce update.
  f.DeliverOne(0);                       // inv -> node 1 (acks)
  // queue: [ack->0]; deliver ack, update is broadcast.
  f.DeliverOne(0);
  // Now simulate the update arriving at a node that never saw the inv: a fresh
  // write from node 1 proceeds with a *newer* ts while node 0's update is in
  // flight; then deliver out of order.
  f.engine(1).Write(kKey, "w2", nullptr);
  // Deliver in reverse: the last message first.
  while (!f.queue().empty()) {
    f.DeliverOne(f.queue().size() - 1);
  }
  EXPECT_EQ(f.entry(0).value, "w2");
  EXPECT_EQ(f.entry(1).value, "w2");
  EXPECT_EQ(f.entry(0).state(), CacheState::kValid);
  EXPECT_EQ(f.entry(1).state(), CacheState::kValid);
}

TEST(LinProtocol, LocalWritesQueuePerKey) {
  FakeFabric f(2, ConsistencyModel::kLin);
  std::vector<int> completion_order;
  f.engine(0).Write(kKey, "first", [&] { completion_order.push_back(1); });
  f.engine(0).Write(kKey, "second", [&] { completion_order.push_back(2); });
  EXPECT_EQ(f.engine(0).stats().local_writes_queued, 1u);
  f.DeliverAllInOrder();
  EXPECT_EQ(completion_order, (std::vector<int>{1, 2}));
  EXPECT_EQ(f.entry(0).value, "second");
  EXPECT_EQ(f.entry(1).value, "second");
}

TEST(LinProtocol, SingleNodeDegeneratesToLocalWrite) {
  FakeFabric f(1, ConsistencyModel::kLin);
  bool done = false;
  f.engine(0).Write(kKey, "solo", [&] { done = true; });
  EXPECT_TRUE(done);  // no sharers: completes inline
  EXPECT_EQ(f.entry(0).state(), CacheState::kValid);
  EXPECT_EQ(f.entry(0).value, "solo");
}

TEST(LinProtocol, RandomizedConvergenceAndCompletion) {
  // Arbitrary write mix with random delivery order: every write's done callback
  // must fire (deadlock freedom) and all replicas converge to the max-ts value.
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    FakeFabric f(3, ConsistencyModel::kLin);
    int completed = 0;
    int issued = 0;
    for (int w = 0; w < 5; ++w) {
      const int node = static_cast<int>(rng.NextBounded(3));
      ++issued;
      f.engine(node).Write(kKey, "w" + std::to_string(w), [&] { ++completed; });
      for (int d = 0; d < 2 && !f.queue().empty(); ++d) {
        if (rng.NextBool(0.7)) {
          f.DeliverOne(rng.NextBounded(f.queue().size()));
        }
      }
    }
    f.DeliverAllRandomOrder(rng);
    ASSERT_EQ(completed, issued) << "round " << round;
    const Timestamp ts0 = f.entry(0).ts();
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(f.entry(i).state(), CacheState::kValid) << "round " << round;
      ASSERT_EQ(f.entry(i).ts(), ts0);
      ASSERT_EQ(f.entry(i).value, f.entry(0).value);
    }
  }
}

TEST(LinProtocol, ValueTsTracksInstalledValueNotPromisedOne) {
  // While node 1 is Invalid for ts {1,0}, its installed value is still the
  // initial one; value_ts must say so (write-back flush correctness).
  FakeFabric f(2, ConsistencyModel::kLin);
  f.engine(0).Write(kKey, "w", nullptr);
  f.DeliverOne(0);  // inv at node 1
  EXPECT_EQ(f.entry(1).state(), CacheState::kInvalid);
  EXPECT_EQ(f.entry(1).ts(), (Timestamp{1, 0}));       // promised
  EXPECT_EQ(f.entry(1).value_ts, (Timestamp{0, 0}));   // installed
  EXPECT_EQ(f.entry(1).value, "init");
  f.DeliverAllInOrder();
  EXPECT_EQ(f.entry(1).value_ts, (Timestamp{1, 0}));
}

// ---------------------------------------------------------------------------
// Cross-model checks
// ---------------------------------------------------------------------------

TEST(Protocols, ScAllowsStaleReadLinDoesNot) {
  // The Figure 5 scenario: session A writes, session B (other node) reads.
  // SC: B may read the old value.  Lin: B must block until the write reaches it.
  {
    FakeFabric f(2, ConsistencyModel::kSc);
    f.engine(0).Write(kKey, "new", nullptr);
    Value v;
    EXPECT_EQ(f.engine(1).Read(kKey, &v, nullptr, nullptr),
              CoherenceEngine::ReadResult::kHit);
    EXPECT_EQ(v, "init");  // stale read allowed under SC
  }
  {
    FakeFabric f(2, ConsistencyModel::kLin);
    f.engine(0).Write(kKey, "new", nullptr);
    f.DeliverOne(0);  // invalidation reaches node 1 before the read
    Value observed;
    bool resumed = false;
    const auto r = f.engine(1).Read(kKey, nullptr, nullptr,
                                    [&](const Value& v, Timestamp) {
                                      resumed = true;
                                      observed = v;
                                    });
    EXPECT_EQ(r, CoherenceEngine::ReadResult::kBlocked);
    f.DeliverAllInOrder();
    EXPECT_TRUE(resumed);
    EXPECT_EQ(observed, "new");  // never the stale value
  }
}

// ---------------------------------------------------------------------------
// Hot-set membership hooks (epoch machinery)
// ---------------------------------------------------------------------------

TEST(MembershipHooks, EvictionSafeTracksLinWriteLifecycle) {
  FakeFabric f(3, ConsistencyModel::kLin);
  EXPECT_TRUE(f.engine(0).EvictionSafe(kKey));
  f.engine(0).Write(kKey, "w", nullptr);
  // Evicting mid-write would strand the pending-ack state: unsafe until the
  // ack round completes, at every stage of it.
  EXPECT_FALSE(f.engine(0).EvictionSafe(kKey));
  f.DeliverAllInOrder();  // invalidations, acks, then the update broadcast
  EXPECT_TRUE(f.engine(0).EvictionSafe(kKey));
  EXPECT_TRUE(f.engine(0).Quiescent());
}

TEST(MembershipHooks, EvictionSafeFalseWithParkedReader) {
  FakeFabric f(2, ConsistencyModel::kLin);
  f.engine(0).Write(kKey, "w", nullptr);
  f.DeliverOne();  // the invalidation reaches node 1
  Value got;
  f.engine(1).Read(kKey, nullptr, nullptr,
                   [&got](const Value& v, Timestamp) { got = v; });
  EXPECT_FALSE(f.engine(1).EvictionSafe(kKey));  // reader parked on Invalid
  f.DeliverAllInOrder();                         // ack, then the update
  EXPECT_EQ(got, "w");
  EXPECT_TRUE(f.engine(1).EvictionSafe(kKey));
}

TEST(MembershipHooks, ReadmittedEntryStartsClean) {
  // The waiters live on the entry, so an evicted key takes nothing with it
  // and a re-admitted one starts with empty queues.  Use every waiter kind
  // on node 0's entry first, so its queue slots have held callbacks.
  FakeFabric f(2, ConsistencyModel::kLin);
  int callbacks = 0;
  f.engine(1).Write(kKey, "theirs", [&callbacks] { ++callbacks; });
  f.DeliverOne();  // node 1's invalidation: node 0's entry turns Invalid
  f.engine(0).Read(kKey, nullptr, nullptr,
                   [&callbacks](const Value&, Timestamp) { ++callbacks; });
  f.engine(0).Write(kKey, "mine", [&callbacks] { ++callbacks; });
  f.engine(0).Write(kKey, "queued", [&callbacks] { ++callbacks; });
  EXPECT_FALSE(f.engine(0).EvictionSafe(kKey));
  f.DeliverAllInOrder();
  ASSERT_EQ(callbacks, 4);
  ASSERT_TRUE(f.engine(0).Quiescent());
  ASSERT_TRUE(f.engine(0).EvictionSafe(kKey));

  SymmetricCache::Eviction ev;
  f.cache(0).Evict(kKey, &ev);
  EXPECT_TRUE(f.engine(0).EvictionSafe(kKey));  // absent keys strand nothing
  f.cache(0).Admit(kKey);
  const CacheEntry& fresh = f.entry(0);
  EXPECT_FALSE(fresh.HasWaiters());
  EXPECT_TRUE(fresh.parked_readers.empty());
  EXPECT_TRUE(fresh.queued_writes.empty());
  EXPECT_FALSE(fresh.write_done);

  // A read parked on the refilled entry wakes once, with the fill's value;
  // nothing from the entry's previous life fires.
  Value got;
  f.engine(0).Read(kKey, nullptr, nullptr, [&](const Value& v, Timestamp) {
    got = v;
    ++callbacks;
  });
  EXPECT_FALSE(f.engine(0).Quiescent());
  f.cache(0).Fill(kKey, "refilled", ev.ts);
  f.engine(0).OnFilled(kKey);
  EXPECT_EQ(got, "refilled");
  EXPECT_EQ(callbacks, 5);
  EXPECT_FALSE(f.entry(0).HasWaiters());
  EXPECT_TRUE(f.engine(0).Quiescent());
  EXPECT_TRUE(f.engine(0).EvictionSafe(kKey));
}

TEST(MembershipHooksDeathTest, EvictingAnEntryWithAWaiterFails) {
  // An eviction that would strand a waiter must fail loudly, also in Release:
  // dropping the callback would hang its session instead.
  FakeFabric f(2, ConsistencyModel::kLin);
  f.engine(0).Write(kKey, "w", nullptr);  // in flight on node 0
  f.DeliverOne();                         // node 1's entry turns Invalid
  f.engine(1).Read(kKey, nullptr, nullptr, [](const Value&, Timestamp) {});
  SymmetricCache::Eviction ev;
  EXPECT_DEATH(f.cache(0).Evict(kKey, &ev), "HasWaiters");  // in-flight write
  EXPECT_DEATH(f.cache(1).Evict(kKey, &ev), "HasWaiters");  // parked reader
}

TEST(MembershipHooks, ScWriteToFillingEntryQueuesUntilFill) {
  FakeFabric f(2, ConsistencyModel::kSc);
  constexpr Key kFresh = 500;
  f.cache(0).Admit(kFresh);
  f.cache(1).Admit(kFresh);

  bool done = false;
  const auto result = f.engine(0).Write(kFresh, "queued", [&done] { done = true; });
  EXPECT_EQ(result, CoherenceEngine::WriteResult::kPending);
  EXPECT_FALSE(done);
  EXPECT_EQ(f.engine(0).stats().local_writes_queued, 1u);
  EXPECT_FALSE(f.engine(0).EvictionSafe(kFresh));  // queued write pins the key
  EXPECT_TRUE(f.queue().empty());                  // nothing broadcast yet

  // The epoch fill arrives with the clock the shard reached (7): the queued
  // write must continue that clock, not restart at 1 — a restart could reuse
  // a timestamp from before the key last left the hot set.
  f.cache(0).Fill(kFresh, "filled", Timestamp{7, 1});
  f.engine(0).OnFilled(kFresh);
  EXPECT_TRUE(done);
  EXPECT_EQ(f.cache(0).Find(kFresh)->ts(), (Timestamp{8, 0}));
  EXPECT_TRUE(f.engine(0).EvictionSafe(kFresh));
  f.DeliverAllInOrder();
  EXPECT_EQ(f.cache(1).Find(kFresh)->value, "queued");
}

TEST(MembershipHooks, LinWriteToFillingEntryQueuesUntilFill) {
  FakeFabric f(2, ConsistencyModel::kLin);
  constexpr Key kFresh = 501;
  f.cache(0).Admit(kFresh);
  f.cache(1).Admit(kFresh);

  bool done = false;
  f.engine(0).Write(kFresh, "queued", [&done] { done = true; });
  EXPECT_FALSE(done);
  EXPECT_TRUE(f.queue().empty());  // no invalidations until the fill

  f.cache(0).Fill(kFresh, "filled", Timestamp{7, 1});
  f.engine(0).OnFilled(kFresh);
  EXPECT_FALSE(done);              // now a normal in-flight Lin write
  EXPECT_FALSE(f.queue().empty()); // its invalidation is on the wire
  f.DeliverAllInOrder();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.cache(0).Find(kFresh)->ts(), (Timestamp{8, 0}));
  EXPECT_EQ(f.cache(1).Find(kFresh)->value, "queued");
}

TEST(MembershipHooks, RemoteTrafficReleasesFillingQueuedWrite) {
  // A remote write's invalidation (not the fill) can be what moves a kFilling
  // entry onto a live clock; the queued local write must start then.
  FakeFabric f(2, ConsistencyModel::kLin);
  constexpr Key kFresh = 502;
  f.cache(0).Admit(kFresh);
  f.cache(1).Admit(kFresh);
  f.cache(1).Fill(kFresh, "filled", Timestamp{3, 1});
  f.engine(1).OnFilled(kFresh);

  bool done = false;
  f.engine(0).Write(kFresh, "mine", [&done] { done = true; });  // queued
  f.engine(1).Write(kFresh, "theirs", nullptr);
  f.DeliverAllInOrder();  // inv releases node 0's queued write; rounds drain
  EXPECT_TRUE(done);
  EXPECT_TRUE(f.engine(0).Quiescent());
  EXPECT_TRUE(f.engine(1).Quiescent());
  // Node 0's write carries the higher timestamp, so both converge on "mine".
  EXPECT_EQ(f.entryOf(0, kFresh).value, f.entryOf(1, kFresh).value);
}

// Every waiter an engine keeps sits on a cache entry.  Drive both protocols
// through random reads, writes, deliveries, fills and EvictionSafe-gated
// evictions and re-admissions, and after every step compare the engine's
// waiter accounting with the test's own count of the operations still waiting
// on each key and with a scan of the cache entries.  Some read callbacks
// re-enter the engine: a plain Read, or (Lin) a Write and then a Read of the
// same key, which parks behind the write it just started.
TEST(Protocols, WaiterAccountingMatchesEntryScan) {
  constexpr Key kKeys[] = {kKey, 1001, 1002, 1003};
  constexpr int kNodes = 3;
  for (auto model : {ConsistencyModel::kSc, ConsistencyModel::kLin}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(std::string(ToString(model)) + " seed " + std::to_string(seed));
      FakeFabric f(kNodes, model);
      for (int i = 0; i < kNodes; ++i) {
        for (const Key key : kKeys) {
          if (key != kKey) {
            f.cache(i).Admit(key);
            f.cache(i).Fill(key, "init", Timestamp{0, 0});
          }
        }
      }
      Rng rng(seed);
      // waiting[node][key]: operations issued on `node` whose callback has
      // not fired yet.
      std::map<std::pair<int, Key>, int> waiting;
      std::uint64_t issued = 0;
      std::uint64_t finished = 0;
      int serial = 0;
      auto done_write = [&](int node, Key key) {
        return [&waiting, &finished, node, key] {
          --waiting[{node, key}];
          ++finished;
        };
      };
      auto issue_write = [&](int node, Key key) {
        ++issued;
        ++waiting[{node, key}];
        f.engine(node).Write(key, "v" + std::to_string(++serial), done_write(node, key));
      };
      std::function<void(int, Key, int)> issue_read = [&](int node, Key key,
                                                          int reenter) {
        ++issued;
        ++waiting[{node, key}];
        Value v;
        Timestamp ts;
        const auto r = f.engine(node).Read(
            key, &v, &ts, [&, node, key, reenter](const Value&, Timestamp) {
              --waiting[{node, key}];
              ++finished;
              if (reenter == 1) {
                issue_read(node, key, 0);
              } else if (reenter == 2) {
                issue_write(node, key);
                issue_read(node, key, 0);
              }
            });
        if (r == CoherenceEngine::ReadResult::kHit) {
          --waiting[{node, key}];
          ++finished;
        }
      };
      auto check = [&] {
        for (int i = 0; i < kNodes; ++i) {
          int node_waiting = 0;
          for (const Key key : kKeys) {
            const int expect = waiting[{i, key}];
            node_waiting += expect;
            int on_entry = 0;
            if (const CacheEntry* e = f.cache(i).Find(key); e != nullptr) {
              for (const WaiterFifo* q : {&e->parked_readers, &e->queued_writes}) {
                for (const Waiter* w = q->head; w != nullptr; w = w->next) {
                  ++on_entry;
                }
              }
              on_entry += e->write_in_flight ? 1 : 0;
            }
            ASSERT_EQ(on_entry, expect) << "node " << i << " key " << key;
            ASSERT_EQ(f.engine(i).EvictionSafe(key), expect == 0)
                << "node " << i << " key " << key;
          }
          ASSERT_EQ(f.engine(i).Quiescent(), node_waiting == 0) << "node " << i;
        }
      };
      for (int step = 0; step < 3000; ++step) {
        const int node = static_cast<int>(rng.NextBounded(kNodes));
        const Key key = kKeys[rng.NextBounded(std::size(kKeys))];
        const bool cached = f.cache(node).Find(key) != nullptr;
        const std::uint64_t action = rng.NextBounded(100);
        if (action < 30) {
          if (!f.queue().empty()) {
            f.DeliverOne(rng.NextBounded(f.queue().size()));
          }
        } else if (action < 55) {
          if (cached) {
            const std::uint64_t r = rng.NextBounded(8);
            issue_read(node, key,
                       r == 0 ? 1 : (r == 1 && model == ConsistencyModel::kLin ? 2 : 0));
          }
        } else if (action < 75) {
          if (cached) {
            issue_write(node, key);
          }
        } else if (action < 85) {
          if (cached && f.cache(node).Find(key)->state() == CacheState::kFilling) {
            f.cache(node).Fill(key, "fill", Timestamp{0, 0});
            f.engine(node).OnFilled(key);
          }
        } else if (action < 95) {
          if (cached && f.engine(node).EvictionSafe(key)) {
            SymmetricCache::Eviction ev;
            f.cache(node).Evict(key, &ev);
          }
        } else if (!cached) {
          f.cache(node).Admit(key);
        }
        check();
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
      // Drain: deliver everything and fill what is still filling.  Every
      // operation then completes, so no waiter was lost or left behind.
      while (!f.queue().empty() || [&] {
        bool filled = false;
        for (int i = 0; i < kNodes; ++i) {
          for (const Key key : f.cache(i).PendingFills()) {
            f.cache(i).Fill(key, "fill", Timestamp{0, 0});
            f.engine(i).OnFilled(key);
            filled = true;
          }
        }
        return filled;
      }()) {
        f.DeliverAllInOrder();
      }
      check();
      EXPECT_EQ(finished, issued);
      std::uint64_t blocked = 0;
      std::uint64_t queued = 0;
      for (int i = 0; i < kNodes; ++i) {
        blocked += f.engine(i).stats().reads_blocked;
        queued += f.engine(i).stats().local_writes_queued;
      }
      EXPECT_GT(blocked, 0u);
      EXPECT_GT(queued, 0u);
      EXPECT_GT(finished, 0u);
    }
  }
}

TEST(Protocols, QuiescentAfterDrain) {
  for (auto model : {ConsistencyModel::kSc, ConsistencyModel::kLin}) {
    FakeFabric f(3, model);
    f.engine(0).Write(kKey, "a", nullptr);
    f.engine(2).Write(kKey, "b", nullptr);
    f.DeliverAllInOrder();
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(f.engine(i).Quiescent()) << ToString(model) << " node " << i;
    }
  }
}

}  // namespace
}  // namespace cckvs
