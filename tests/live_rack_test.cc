// Live multithreaded rack (src/runtime/): real threads running the production
// store/cache/engine code, certified by the verify/ checkers.
//
// These are the tests the CI sanitizer matrix exists for: under TSan they
// exercise the CRCW seqlock path, the MPSC channels and the credit scheme
// with genuine concurrency.  Op counts scale down under sanitizers (and up
// via CCKVS_LIVE_OPS) — a plain Release run covers millions of operations.

#include <sys/mman.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/alloc_tracker.h"
#include "src/runtime/live_rack.h"
#include "src/store/partition.h"
#include "src/store/partitioner.h"
#include "src/verify/history.h"
#include "src/workload/workload.h"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define CCKVS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define CCKVS_SANITIZED 1
#endif
#endif

namespace cckvs {
namespace {

std::uint64_t OpsPerNode(std::uint64_t release_default, std::uint64_t sanitized) {
  if (const char* env = std::getenv("CCKVS_LIVE_OPS"); env != nullptr) {
    return std::strtoull(env, nullptr, 10);
  }
#ifdef CCKVS_SANITIZED
  (void)release_default;
  return sanitized;
#else
  (void)sanitized;
  return release_default;
#endif
}

LiveRackParams StressParams(ConsistencyModel model) {
  LiveRackParams p;
  p.num_nodes = 4;
  p.consistency = model;
  // Small keyspace + small cache: maximal hot-key contention, a healthy miss
  // stream through the CRCW shards, and lots of protocol traffic.
  p.workload.keyspace = 16'384;
  p.workload.zipf_alpha = 0.99;
  p.workload.write_ratio = 0.2;
  p.workload.value_bytes = 16;  // SSO-sized: histories of millions of ops stay cheap
  p.cache_capacity = 512;
  p.partition_buckets = 1 << 10;
  p.window_per_node = 8;
  p.record_history = true;
  p.seed = 7;
  return p;
}

// Rack::Run() with a time limit: a drain that never ends aborts the test
// binary with a message, instead of running into the ctest timeout.
LiveReport RunBounded(LiveRack& rack, std::chrono::seconds limit,
                      const std::string& what) {
  std::packaged_task<LiveReport()> task([&rack] { return rack.Run(); });
  std::future<LiveReport> report = task.get_future();
  std::thread runner(std::move(task));
  if (report.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "%s: Run() did not return within %llds: drain hang\n",
                 what.c_str(), static_cast<long long>(limit.count()));
    std::fflush(stderr);
    if (rack.params().transport.kind == TransportKind::kShm) {
      shm_unlink(rack.params().transport.shm_name.c_str());
    }
    std::_Exit(1);  // the node threads cannot be joined
  }
  runner.join();
  return report.get();
}

void ExpectHealthyRun(const LiveRackParams& p, const LiveReport& r) {
  EXPECT_GE(r.completed, p.ops_per_node * static_cast<std::uint64_t>(p.num_nodes));
  EXPECT_GT(r.rack.hit_rate, 0.0);
  EXPECT_LT(r.rack.hit_rate, 1.0);  // the keyspace tail misses
  // The credit sizing must have kept every channel below its bound.
  EXPECT_EQ(r.channel_full_waits, 0u);
  // Transport invariants that hold with and without coalescing: the fabric
  // drained completely, every sent message arrived, and a receiver was only
  // ever woken by an actual push.
  EXPECT_EQ(r.channel_batches, r.batches_sent);
  EXPECT_LE(r.wakeups, r.channel_batches);
  if (p.coalescing) {
    EXPECT_GT(r.channel_messages, r.channel_batches)
        << "coalescing on but no batch ever carried two messages";
  } else {
    EXPECT_EQ(r.channel_messages, r.channel_batches);
  }
}

TEST(LiveRackTest, ScStressHistoriesAreSequentiallyConsistent) {
  LiveRackParams p = StressParams(ConsistencyModel::kSc);
  p.ops_per_node = OpsPerNode(250'000, 30'000);
  LiveRack rack(p);
  const LiveReport r = rack.Run();
  ExpectHealthyRun(p, r);
  EXPECT_GT(r.engine_totals.writes, 0u);
  EXPECT_GT(r.rack.updates_sent, 0u);
  EXPECT_EQ(r.rack.invalidations_sent, 0u);  // SC has no invalidation phase

  EXPECT_EQ(rack.history().size(), r.completed);
  EXPECT_EQ(rack.history().CheckPerKeySequentialConsistency(), "");
  EXPECT_EQ(rack.history().CheckWriteAtomicity(), "");
}

TEST(LiveRackTest, LinStressHistoriesAreLinearizable) {
  LiveRackParams p = StressParams(ConsistencyModel::kLin);
  p.ops_per_node = OpsPerNode(250'000, 30'000);
  LiveRack rack(p);
  const LiveReport r = rack.Run();
  ExpectHealthyRun(p, r);
  EXPECT_GT(r.rack.invalidations_sent, 0u);
  EXPECT_GT(r.rack.acks_sent, 0u);
  // Every invalidation is acknowledged — the deadlock-freedom linchpin.
  EXPECT_EQ(r.rack.acks_sent, r.rack.invalidations_sent);

  EXPECT_EQ(rack.history().size(), r.completed);
  EXPECT_EQ(rack.history().CheckPerKeyLinearizability(), "");
  EXPECT_EQ(rack.history().CheckWriteAtomicity(), "");
}

// A deliberately vicious interleaving mill: nearly every key is hot, a third
// of ops are writes, so concurrent writers collide on the same entries
// constantly (superseded writes, update-overtakes-invalidation, queued local
// writes all trigger).
TEST(LiveRackTest, HotContentionBothModels) {
  for (const ConsistencyModel model :
       {ConsistencyModel::kSc, ConsistencyModel::kLin}) {
    LiveRackParams p = StressParams(model);
    p.workload.keyspace = 512;
    p.workload.write_ratio = 0.3;
    p.cache_capacity = 128;
    p.ops_per_node = OpsPerNode(50'000, 10'000);
    p.seed = 11;
    LiveRack rack(p);
    const LiveReport r = rack.Run();
    ExpectHealthyRun(p, r);
    const std::string err = model == ConsistencyModel::kSc
                                ? rack.history().CheckPerKeySequentialConsistency()
                                : rack.history().CheckPerKeyLinearizability();
    EXPECT_EQ(err, "") << "model=" << ToString(model);
    EXPECT_EQ(rack.history().CheckWriteAtomicity(), "") << "model=" << ToString(model);
  }
}

// Adaptive epochs under a drifting workload: node 0 learns the hot set
// online, every epoch transition churns cache membership while writes are in
// flight, and the workload keeps shifting popularity so transitions never
// stop.  This exercises the whole hot-set subsystem — coordinator sampling,
// announce/fill/install-barrier traffic on the credited channels, deferred
// protocol-safe evictions, and the shard residency gate that keeps the
// direct-miss data plane consistent — and the sealed histories must still
// pass the full per-key SC/Lin checkers, not just write atomicity.
TEST(LiveRackTest, EpochChurnUnderDriftStaysConsistent) {
  for (const ConsistencyModel model :
       {ConsistencyModel::kSc, ConsistencyModel::kLin}) {
    LiveRackParams p = StressParams(model);
    p.workload.keyspace = 8'192;
    p.workload.drift_period_ops = 15'000;
    p.workload.drift_rank_shift = 64;
    p.cache_capacity = 256;
    p.prefill_hot_set = false;  // learn from cold
    p.online_topk = true;
    p.topk_epoch_requests = 5'000;
    p.topk_sample_probability = 1.0;
    p.ops_per_node = OpsPerNode(60'000, 15'000);
    p.seed = 13;
    LiveRack rack(p);
    const LiveReport r = rack.Run();
    ExpectHealthyRun(p, r);
    EXPECT_GT(r.rack.epochs, 1u) << "epochs must keep closing";
    EXPECT_GT(r.epoch_msgs, 0u);
    const std::string err = model == ConsistencyModel::kSc
                                ? rack.history().CheckPerKeySequentialConsistency()
                                : rack.history().CheckPerKeyLinearizability();
    EXPECT_EQ(err, "") << "model=" << ToString(model);
    EXPECT_EQ(rack.history().CheckWriteAtomicity(), "") << "model=" << ToString(model);
  }
}

// The full stress matrix with transport coalescing on: batched channel
// traffic must leave the sealed histories exactly as checker-clean as the
// per-message fabric.  This is the TSan/ASan target for the coalescer — the
// per-peer FIFO across batch boundaries and message-granular credits are
// load-bearing here, not simulated.
TEST(LiveRackTest, CoalescedStressStaysConsistent) {
  for (const ConsistencyModel model :
       {ConsistencyModel::kSc, ConsistencyModel::kLin}) {
    LiveRackParams p = StressParams(model);
    p.coalescing = true;
    p.coalesce_max_batch = 8;
    p.ops_per_node = OpsPerNode(150'000, 20'000);
    p.seed = 17;
    LiveRack rack(p);
    const LiveReport r = rack.Run();
    ExpectHealthyRun(p, r);
    const std::string err = model == ConsistencyModel::kSc
                                ? rack.history().CheckPerKeySequentialConsistency()
                                : rack.history().CheckPerKeyLinearizability();
    EXPECT_EQ(err, "") << "model=" << ToString(model);
    EXPECT_EQ(rack.history().CheckWriteAtomicity(), "") << "model=" << ToString(model);
    if (model == ConsistencyModel::kLin) {
      EXPECT_EQ(r.rack.acks_sent, r.rack.invalidations_sent);
    }
  }
}

// Deadline-held batches (coalesce_flush_deadline_us) must not disturb the
// checkers either: sub-cap batches now outlive op boundaries, so protocol
// messages can sit in an open batch across many pump iterations before the
// deadline ships them — FIFO, credits and the drain exit must all survive.
TEST(LiveRackTest, DeadlineFlushStressStaysConsistent) {
  for (const ConsistencyModel model :
       {ConsistencyModel::kSc, ConsistencyModel::kLin}) {
    LiveRackParams p = StressParams(model);
    p.coalescing = true;
    p.coalesce_max_batch = 16;
    p.coalesce_flush_deadline_us = 20;
    p.ops_per_node = OpsPerNode(100'000, 15'000);
    p.seed = 23;
    LiveRack rack(p);
    const LiveReport r = rack.Run();
    ExpectHealthyRun(p, r);
    EXPECT_GT(r.flushes_deadline, 0u) << "the hold policy never fired";
    const std::string err = model == ConsistencyModel::kSc
                                ? rack.history().CheckPerKeySequentialConsistency()
                                : rack.history().CheckPerKeyLinearizability();
    EXPECT_EQ(err, "") << "model=" << ToString(model);
    EXPECT_EQ(rack.history().CheckWriteAtomicity(), "") << "model=" << ToString(model);
  }
}

// The issue round polls the fabric between slices of 16 issued ops, so only
// a window wider than one slice exercises the mid-round poll: 48 sessions
// cross two slice boundaries per round.  Acks, updates and invalidations
// polled mid-round ship at once while the rest of the round is still to be
// issued; both checkers must still pass, on the in-process and the shm
// fabric.
TEST(LiveRackTest, SlicedIssueRoundStaysConsistent) {
  for (const TransportKind kind : {TransportKind::kInproc, TransportKind::kShm}) {
    for (const ConsistencyModel model :
         {ConsistencyModel::kSc, ConsistencyModel::kLin}) {
      SCOPED_TRACE(std::string(ToString(kind)) + "/" + ToString(model));
      LiveRackParams p = StressParams(model);
      p.workload.keyspace = 512;
      p.workload.write_ratio = 0.3;
      p.cache_capacity = 128;
      p.window_per_node = 48;
      p.coalescing = true;
      p.busy_poll = true;
      p.ops_per_node = OpsPerNode(60'000, 8'000);
      p.seed = 29;
      p.transport.kind = kind;
      p.transport.shm_name = "/cckvs_sliced_" + std::to_string(getpid());
      LiveRack rack(p);
      const LiveReport r = rack.Run();
      ASSERT_TRUE(r.transport_error.empty()) << r.transport_error;
      ExpectHealthyRun(p, r);
      const std::string err = model == ConsistencyModel::kSc
                                  ? rack.history().CheckPerKeySequentialConsistency()
                                  : rack.history().CheckPerKeyLinearizability();
      EXPECT_EQ(err, "");
      EXPECT_EQ(rack.history().CheckWriteAtomicity(), "");
      if (model == ConsistencyModel::kLin) {
        EXPECT_EQ(r.rack.acks_sent, r.rack.invalidations_sent);
      }
    }
  }
}

// Coalescing composed with the hot-set subsystem under drift: epoch traffic
// (announce/fill/install barrier) rides the same batched lanes as the
// protocol messages it must stay FIFO with.
TEST(LiveRackTest, CoalescedEpochChurnUnderDriftStaysConsistent) {
  for (const ConsistencyModel model :
       {ConsistencyModel::kSc, ConsistencyModel::kLin}) {
    LiveRackParams p = StressParams(model);
    p.coalescing = true;
    p.coalesce_max_batch = 16;
    p.workload.keyspace = 8'192;
    p.workload.drift_period_ops = 15'000;
    p.workload.drift_rank_shift = 64;
    p.cache_capacity = 256;
    p.prefill_hot_set = false;
    p.online_topk = true;
    p.topk_epoch_requests = 5'000;
    p.topk_sample_probability = 1.0;
    p.ops_per_node = OpsPerNode(60'000, 15'000);
    p.seed = 19;
    LiveRack rack(p);
    const LiveReport r = rack.Run();
    ExpectHealthyRun(p, r);
    EXPECT_GT(r.rack.epochs, 1u);
    EXPECT_GT(r.epoch_msgs, 0u);
    const std::string err = model == ConsistencyModel::kSc
                                ? rack.history().CheckPerKeySequentialConsistency()
                                : rack.history().CheckPerKeyLinearizability();
    EXPECT_EQ(err, "") << "model=" << ToString(model);
    EXPECT_EQ(rack.history().CheckWriteAtomicity(), "") << "model=" << ToString(model);
  }
}

// Ending a run while an epoch is still installing.  Epochs close every 2'000
// of node 0's ops under fast drift, each one moving a large share of a
// 1'000-key hot set, and broadcast credits are scarce: so as the rack halts,
// peers that already reached their quota still evict, fill and broadcast
// EpochInstalled, some of it parked for credits.  The termination protocol
// must wait for all of it, parked messages included, and every run must
// end, in-process and on shm.
TEST(LiveRackTest, RunEndsWhileAnEpochIsInstalling) {
  for (const TransportKind kind : {TransportKind::kInproc, TransportKind::kShm}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const std::string what =
          std::string(ToString(kind)) + "/seed " + std::to_string(seed);
      SCOPED_TRACE(what);
      LiveRackParams p = StressParams(ConsistencyModel::kSc);
      p.workload.write_ratio = 0.05;
      p.workload.drift_period_ops = 4'000;
      p.workload.drift_rank_shift = 200;
      p.cache_capacity = 1'000;
      p.online_topk = true;
      p.topk_epoch_requests = 2'000;
      p.topk_sample_probability = 1.0;
      p.bcast_credits_per_peer = 16;
      p.ops_per_node = OpsPerNode(20'000, 4'000);
      p.seed = seed;
      p.transport.kind = kind;
      p.transport.shm_name = "/cckvs_epochend_" + std::to_string(getpid());
      LiveRack rack(p);
      const LiveReport r = RunBounded(rack, std::chrono::seconds(60), what);
      ASSERT_TRUE(r.transport_error.empty()) << r.transport_error;
      ExpectHealthyRun(p, r);
      EXPECT_GT(r.rack.epochs, 1u);
      EXPECT_EQ(rack.history().CheckPerKeySequentialConsistency(), "");
      EXPECT_EQ(rack.history().CheckWriteAtomicity(), "");
    }
  }
}

// Oracle prefill composed with online epochs: the run starts in the steady
// state and the epoch machinery takes membership over from there.
TEST(LiveRackTest, PrefilledOnlineTopkStaysConsistent) {
  LiveRackParams p = StressParams(ConsistencyModel::kLin);
  p.online_topk = true;
  p.topk_epoch_requests = 10'000;
  p.topk_sample_probability = 1.0;
  p.ops_per_node = OpsPerNode(40'000, 10'000);
  LiveRack rack(p);
  const LiveReport r = rack.Run();
  ExpectHealthyRun(p, r);
  EXPECT_EQ(rack.history().CheckPerKeyLinearizability(), "");
}

// The node-private L1 tail in front of the symmetric tier: per-node rank
// skew (node_rank_stride) makes each node's locally-hot keys diverge from
// the global hot set, so the L1 actually fills and serves.  The sealed
// histories must stay exactly as checker-clean as without the L1 — the
// write-through-invalidate posture's whole claim — and the two tiers must
// never hold the same key (tier exclusivity).
TEST(LiveRackTest, L1TailStressStaysConsistent) {
  for (const ConsistencyModel model :
       {ConsistencyModel::kSc, ConsistencyModel::kLin}) {
    LiveRackParams p = StressParams(model);
    p.l1_capacity = 256;
    p.workload.node_rank_stride = 1'024;  // per-node popularity divergence
    p.ops_per_node = OpsPerNode(120'000, 20'000);
    p.seed = 29;
    LiveRack rack(p);
    const LiveReport r = rack.Run();
    ExpectHealthyRun(p, r);
    EXPECT_GT(r.rack.l1_fills, 0u) << "L1 never admitted a key";
    EXPECT_GT(r.rack.l1_hits, 0u) << "L1 never served a hit";
    EXPECT_GT(r.rack.l1_invalidations, 0u) << "writes never invalidated";
    for (NodeId n = 0; n < static_cast<NodeId>(p.num_nodes); ++n) {
      const L1TailCache* l1 = rack.node(n).l1();
      ASSERT_NE(l1, nullptr);
      for (const Key key : l1->Keys()) {
        EXPECT_EQ(rack.node(n).cache().Find(key), nullptr)
            << "key " << key << " resident in both tiers on node "
            << static_cast<int>(n);
      }
    }
    const std::string err = model == ConsistencyModel::kSc
                                ? rack.history().CheckPerKeySequentialConsistency()
                                : rack.history().CheckPerKeyLinearizability();
    EXPECT_EQ(err, "") << "model=" << ToString(model);
    EXPECT_EQ(rack.history().CheckWriteAtomicity(), "") << "model=" << ToString(model);
  }
}

// L1 composed with epoch churn: keys promoted into the symmetric tier by an
// announce must leave every node's L1 (the announce hook), and the residency
// gate must keep Lin validation honest while shard copies are transiently
// stale.
TEST(LiveRackTest, L1TailUnderEpochChurnStaysConsistent) {
  for (const ConsistencyModel model :
       {ConsistencyModel::kSc, ConsistencyModel::kLin}) {
    LiveRackParams p = StressParams(model);
    p.l1_capacity = 128;
    p.workload.keyspace = 8'192;
    p.workload.node_rank_stride = 512;
    p.workload.drift_period_ops = 15'000;
    p.workload.drift_rank_shift = 64;
    p.cache_capacity = 256;
    p.prefill_hot_set = false;
    p.online_topk = true;
    p.topk_epoch_requests = 5'000;
    p.topk_sample_probability = 1.0;
    p.ops_per_node = OpsPerNode(60'000, 15'000);
    p.seed = 31;
    LiveRack rack(p);
    const LiveReport r = rack.Run();
    ExpectHealthyRun(p, r);
    EXPECT_GT(r.rack.epochs, 1u);
    const std::string err = model == ConsistencyModel::kSc
                                ? rack.history().CheckPerKeySequentialConsistency()
                                : rack.history().CheckPerKeyLinearizability();
    EXPECT_EQ(err, "") << "model=" << ToString(model);
    EXPECT_EQ(rack.history().CheckWriteAtomicity(), "") << "model=" << ToString(model);
  }
}

// The cooperative stop token halts issuing early but still drains to global
// quiescence, so the sealed history stays checker-clean.
TEST(LiveRackTest, EarlyStopStillSealsHistories) {
  LiveRackParams p = StressParams(ConsistencyModel::kLin);
  p.ops_per_node = 100'000'000;  // unreachable: the stop token ends the run
  LiveRack rack(p);
  std::thread stopper([&rack] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    rack.RequestStop();
  });
  const LiveReport r = rack.Run();
  stopper.join();
  EXPECT_GT(r.completed, 0u);
  EXPECT_LT(r.completed, p.ops_per_node * static_cast<std::uint64_t>(p.num_nodes));
  EXPECT_EQ(rack.history().CheckPerKeyLinearizability(), "");
}

// The store prefill fills each local shard on a loader thread of its own.
// Every shard must come out as the serial loop it replaced leaves it: one
// Apply per key in ascending key order on the constructing thread, then the
// hot set's residency gates.  Checked per key (value, timestamp, resident
// flag, overflow depth) and per shard (records, overflow buckets, slab slots
// and arena bytes).
void ExpectPrefillMatchesSerialLoop(const LiveRackParams& p) {
  LiveRack rack(p);
  ASSERT_TRUE(rack.transport().ok()) << rack.transport().init_error();
  const std::uint32_t vb = p.workload.value_bytes;
  ModuloPartitioner partitioner(p.num_nodes);
  std::vector<std::unique_ptr<Partition>> serial(static_cast<std::size_t>(p.num_nodes));
  for (int i = 0; i < p.num_nodes; ++i) {
    if (rack.IsLocal(static_cast<NodeId>(i))) {
      PartitionConfig pc;  // as LiveNode configures its shard
      pc.buckets = p.partition_buckets;
      pc.node_id = static_cast<NodeId>(i);
      pc.synthesize = [vb](Key key) { return SynthesizeValue(key, vb); };
      serial[static_cast<std::size_t>(i)] = std::make_unique<Partition>(pc);
    }
  }
  Value value;
  for (Key key = 0; key < p.workload.keyspace; ++key) {
    if (Partition* shard = serial[partitioner.HomeOf(key)].get(); shard != nullptr) {
      SynthesizeValueInto(key, vb, &value);
      shard->Apply(key, value, Timestamp{0, 0});
    }
  }
  const std::vector<Key> hot =
      MakePerThreadGenerators(p.workload, p.num_nodes, p.seed)[0].HottestKeys(
          p.cache_capacity);
  for (const Key key : hot) {
    if (Partition* shard = serial[partitioner.HomeOf(key)].get(); shard != nullptr) {
      shard->MarkCacheResident(key);
    }
  }

  int local = 0;
  for (int i = 0; i < p.num_nodes; ++i) {
    const Partition* want = serial[static_cast<std::size_t>(i)].get();
    if (want == nullptr) {
      continue;
    }
    ++local;
    const Partition& got = rack.node(static_cast<NodeId>(i)).partition();
    EXPECT_EQ(got.size(), want->size()) << "shard " << i;
    EXPECT_GT(want->overflow_buckets(), 0u) << "the shape must chain overflow buckets";
    EXPECT_EQ(got.overflow_buckets(), want->overflow_buckets()) << "shard " << i;
    EXPECT_EQ(got.slab_stats().allocated_slots, want->slab_stats().allocated_slots);
    EXPECT_EQ(got.slab_stats().arena_bytes, want->slab_stats().arena_bytes);
    std::size_t resident = 0;
    for (Key key = 0; key < p.workload.keyspace; ++key) {
      if (partitioner.HomeOf(key) != i) {
        continue;
      }
      Value got_value, want_value;
      Timestamp got_ts, want_ts;
      bool got_resident = false, want_resident = false;
      ASSERT_TRUE(got.Get(key, &got_value, &got_ts, &got_resident));
      ASSERT_TRUE(want->Get(key, &want_value, &want_ts, &want_resident));
      ASSERT_EQ(got_value, want_value) << "key " << key;
      ASSERT_EQ(got_ts, want_ts) << "key " << key;
      ASSERT_EQ(got_resident, want_resident) << "key " << key;
      ASSERT_EQ(got.ChainDepth(key), want->ChainDepth(key)) << "key " << key;
      resident += want_resident ? 1 : 0;
    }
    EXPECT_GT(resident, 0u) << "shard " << i << " homes no hot key";
  }
  EXPECT_EQ(local, rack.ranked() ? 1 : p.num_nodes);
}

LiveRackParams PrefillParams() {
  LiveRackParams p;
  p.num_nodes = 4;
  // 16k keys a shard over 1k buckets of 7 ways: most keys chain.
  p.workload.keyspace = 65'536;
  p.workload.value_bytes = 40;
  p.partition_buckets = 1 << 10;
  p.cache_capacity = 256;
  p.online_topk = true;  // the hot-set prefill raises residency gates
  p.prefill_store = true;
  p.seed = 5;
  return p;
}

TEST(LiveRackTest, ParallelPrefillMatchesSerialLoop) {
  ExpectPrefillMatchesSerialLoop(PrefillParams());
}

// A ranked rank owns one shard, which its constructing thread fills itself.
TEST(LiveRackTest, RankedPrefillMatchesSerialLoop) {
  LiveRackParams p = PrefillParams();
  p.transport.kind = TransportKind::kShm;
  p.transport.rank = 0;  // creates the region, so it needs no peer to start
  p.transport.shm_name = "/cckvs_prefill_" + std::to_string(getpid());
  ExpectPrefillMatchesSerialLoop(p);
}

// The zero-steady-state-allocation invariant, per backend and protocol: a
// rack over a prefilled store runs its measured window (quota/4 .. halt) with
// the allocation tracker armed, and alloc_assert CHECK-fails any node thread
// that allocates.  Over shm this also covers the serialize/deserialize
// scratch and the pool magazines that batches cross on every frame.  Under
// Lin it also covers the ack round: invalidations, acks and updates through
// the warm wire slots, and in-flight writes, parked readers and queued local
// writes on their cache entries.
class LiveRackZeroAllocTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  static void RunAudit(ConsistencyModel model) {
    LiveRackParams p;
    p.num_nodes = 4;
    p.consistency = model;
    // live_throughput's audit shape: strided per-node ranks keep the L1 tier
    // filling and serving inside the window, and the frame mix they produce
    // outgrows the shm codec scratch's warm-up size unless it is reserved.
    p.workload.keyspace = 65'536;
    p.workload.zipf_alpha = 0.99;
    p.workload.write_ratio = 0.05;
    p.workload.value_bytes = 40;
    p.workload.node_rank_stride = 1'000;
    p.cache_capacity = 1'000;
    p.l1_capacity = 128;
    p.window_per_node = 32;
    p.ops_per_node = OpsPerNode(25'000, 4'000);
    p.coalescing = true;
    p.seed = 11;
    p.prefill_store = true;
    p.track_allocs = true;
    p.alloc_assert = true;
    p.transport.kind = GetParam();
    p.transport.shm_name = "/cckvs_zeroalloc_" + std::to_string(getpid());
    LiveRack rack(p);
    const LiveReport r = rack.Run();
    ASSERT_TRUE(r.transport_error.empty()) << r.transport_error;
    EXPECT_GE(r.completed, p.ops_per_node * static_cast<std::uint64_t>(p.num_nodes));
    EXPECT_GT(r.channel_messages, 0u);
    if (alloc::TrackerAvailable()) {
      EXPECT_EQ(r.hot_path_allocs, 0u);
    }
  }
};

TEST_P(LiveRackZeroAllocTest, SteadyStateAllocatesNothing) {
  RunAudit(ConsistencyModel::kSc);
}

TEST_P(LiveRackZeroAllocTest, LinSteadyStateAllocatesNothing) {
  RunAudit(ConsistencyModel::kLin);
}

INSTANTIATE_TEST_SUITE_P(Backends, LiveRackZeroAllocTest,
                         ::testing::Values(TransportKind::kInproc, TransportKind::kShm),
                         [](const ::testing::TestParamInfo<TransportKind>& info) {
                           return std::string(ToString(info.param));
                         });

}  // namespace
}  // namespace cckvs
