// Unit tests for the MICA-like store: seqlocks, slab allocation, partition
// operations, concurrency (real threads) and sharding.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/store/partition.h"
#include "src/store/partitioner.h"
#include "src/store/seqlock.h"
#include "src/store/slab.h"

namespace cckvs {
namespace {

// ---------------------------------------------------------------------------
// Seqlock
// ---------------------------------------------------------------------------

TEST(Seqlock, ReadSeesNoWriterMeansNoRetry) {
  Seqlock lock;
  const std::uint32_t v = lock.ReadBegin();
  EXPECT_FALSE(lock.ReadRetry(v));
}

TEST(Seqlock, WriteForcesRetry) {
  Seqlock lock;
  const std::uint32_t v = lock.ReadBegin();
  {
    SeqlockWriteGuard guard(lock);
  }
  EXPECT_TRUE(lock.ReadRetry(v));
}

TEST(Seqlock, VersionIsEvenWhenUnlocked) {
  Seqlock lock;
  EXPECT_EQ(lock.version() % 2, 0u);
  lock.WriteLock();
  EXPECT_EQ(lock.version() % 2, 1u);
  lock.WriteUnlock();
  EXPECT_EQ(lock.version() % 2, 0u);
}

TEST(Seqlock, ConcurrentReadersNeverSeeTornData) {
  // The canonical seqlock test: a writer alternates two complementary patterns;
  // readers must always observe one of them, never a mix.
  Seqlock lock;
  std::uint64_t data[4] = {0, 0, 0, 0};
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::thread writer([&] {
    std::uint64_t pattern = 0;
    for (int i = 0; i < 200000; ++i) {
      pattern = ~pattern;
      lock.WriteLock();
      for (auto& d : data) {
        d = pattern;
      }
      lock.WriteUnlock();
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::uint64_t copy[4];
        std::uint32_t v;
        do {
          v = lock.ReadBegin();
          std::memcpy(copy, data, sizeof(copy));
        } while (lock.ReadRetry(v));
        if (!(copy[0] == copy[1] && copy[1] == copy[2] && copy[2] == copy[3])) {
          torn.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(torn.load(), 0);
}

// ---------------------------------------------------------------------------
// SlabAllocator
// ---------------------------------------------------------------------------

TEST(Slab, ClassSizing) {
  EXPECT_EQ(SlabAllocator::ClassFor(1), 0);
  EXPECT_EQ(SlabAllocator::ClassFor(32), 0);
  EXPECT_EQ(SlabAllocator::ClassFor(33), 1);
  EXPECT_EQ(SlabAllocator::ClassFor(64), 1);
  EXPECT_EQ(SlabAllocator::ClassBytes(0), 32u);
  EXPECT_EQ(SlabAllocator::ClassBytes(3), 256u);
}

TEST(SlabDeathTest, OversizeRecordAborts) {
  EXPECT_DEATH(SlabAllocator::ClassFor(1 << 20), "CHECK");
}

TEST(Slab, AllocateWriteReadBack) {
  SlabAllocator slab;
  const auto ref = slab.Allocate(100);
  std::memset(slab.Data(ref), 0xab, 100);
  EXPECT_EQ(static_cast<unsigned char>(slab.Data(ref)[99]), 0xabu);
  EXPECT_EQ(slab.allocated_slots(), 1u);
}

TEST(Slab, FreeReusesSlots) {
  SlabAllocator slab;
  const auto a = slab.Allocate(40);
  slab.Free(a);
  const auto b = slab.Allocate(40);
  EXPECT_EQ(a, b);  // LIFO freelist reuse
  EXPECT_EQ(slab.freed_slots(), 1u);
}

TEST(Slab, DistinctClassesDistinctArenas) {
  SlabAllocator slab;
  const auto small = slab.Allocate(10);
  const auto large = slab.Allocate(1000);
  EXPECT_NE(small.cls, large.cls);
  EXPECT_NE(slab.Data(small), slab.Data(large));
}

TEST(Slab, TryDataRejectsGarbageRefs) {
  SlabAllocator slab;
  SlabAllocator::Ref bogus;
  bogus.cls = 200;  // out of range
  EXPECT_EQ(slab.TryData(bogus), nullptr);
  bogus.cls = 0;
  bogus.idx = 0xffffff00;  // unmapped chunk
  EXPECT_EQ(slab.TryData(bogus), nullptr);
  const auto real = slab.Allocate(8);
  EXPECT_NE(slab.TryData(real), nullptr);
}

TEST(Slab, RecordsStartOnACacheLine) {
  // 8 chunks' worth of 64 B-class slots (1024 slots per chunk): every record
  // of that class must occupy exactly one cache line.
  SlabAllocator slab;
  for (int i = 0; i < 8 * 1024; ++i) {
    const auto ref = slab.Allocate(64);
    ASSERT_EQ(SlabAllocator::ClassBytes(ref.cls), 64u);
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(slab.Data(ref)) % 64, 0u) << "slot " << i;
  }
}

TEST(Slab, ConcurrentAllocFree) {
  SlabAllocator slab;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> ops{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&slab, &ops, t] {
      Rng rng(static_cast<std::uint64_t>(t));
      std::vector<SlabAllocator::Ref> mine;
      for (int i = 0; i < 20000; ++i) {
        if (mine.empty() || rng.NextBool(0.5)) {
          mine.push_back(slab.Allocate(16 + rng.NextBounded(200)));
        } else {
          slab.Free(mine.back());
          mine.pop_back();
        }
        ops.fetch_add(1, std::memory_order_relaxed);
      }
      for (const auto& ref : mine) {
        slab.Free(ref);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(slab.allocated_slots(), slab.freed_slots());
}

// ---------------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------------

PartitionConfig SmallConfig() {
  PartitionConfig pc;
  pc.buckets = 64;
  pc.node_id = 3;
  return pc;
}

TEST(Partition, GetMissWithoutSynthesizer) {
  Partition part(SmallConfig());
  Value v;
  EXPECT_FALSE(part.Get(42, &v));
  EXPECT_EQ(part.stats().misses, 1u);
}

TEST(Partition, PutThenGet) {
  Partition part(SmallConfig());
  const Timestamp ts = part.Put(42, "hello");
  EXPECT_EQ(ts, (Timestamp{1, 3}));
  Value v;
  Timestamp got_ts;
  ASSERT_TRUE(part.Get(42, &v, &got_ts));
  EXPECT_EQ(v, "hello");
  EXPECT_EQ(got_ts, ts);
  EXPECT_EQ(part.size(), 1u);
}

TEST(Partition, PutBumpsClockMonotonically) {
  Partition part(SmallConfig());
  EXPECT_EQ(part.Put(1, "a").clock, 1u);
  EXPECT_EQ(part.Put(1, "b").clock, 2u);
  EXPECT_EQ(part.Put(1, "c").clock, 3u);
  Value v;
  part.Get(1, &v);
  EXPECT_EQ(v, "c");
  EXPECT_EQ(part.size(), 1u);
}

TEST(Partition, ValueResizeAcrossSizeClasses) {
  Partition part(SmallConfig());
  part.Put(7, "tiny");
  part.Put(7, std::string(500, 'x'));
  Value v;
  ASSERT_TRUE(part.Get(7, &v));
  EXPECT_EQ(v.size(), 500u);
  part.Put(7, "small-again");
  ASSERT_TRUE(part.Get(7, &v));
  EXPECT_EQ(v, "small-again");
}

TEST(Partition, ApplyRespectsTimestamps) {
  Partition part(SmallConfig());
  EXPECT_TRUE(part.Apply(9, "v5", Timestamp{5, 1}));
  EXPECT_FALSE(part.Apply(9, "v3", Timestamp{3, 2}));  // stale
  EXPECT_FALSE(part.Apply(9, "v5b", Timestamp{5, 1}));  // equal is stale too
  EXPECT_TRUE(part.Apply(9, "v5c", Timestamp{5, 2}));   // writer id breaks tie
  Value v;
  Timestamp ts;
  part.Get(9, &v, &ts);
  EXPECT_EQ(v, "v5c");
  EXPECT_EQ(ts, (Timestamp{5, 2}));
  EXPECT_EQ(part.stats().stale_applies, 2u);
}

TEST(Partition, PutAfterApplyContinuesClock) {
  Partition part(SmallConfig());
  part.Apply(4, "flushed", Timestamp{42, 7});
  const Timestamp ts = part.Put(4, "fresh");
  EXPECT_EQ(ts.clock, 43u);
  EXPECT_EQ(ts.writer, 3);
}

TEST(Partition, EraseRemovesAndFreesSlab) {
  Partition part(SmallConfig());
  part.Put(11, "gone-soon");
  EXPECT_TRUE(part.Erase(11));
  EXPECT_FALSE(part.Erase(11));
  Value v;
  EXPECT_FALSE(part.Get(11, &v));
  EXPECT_EQ(part.size(), 0u);
}

TEST(Partition, SynthesizerServesColdReads) {
  PartitionConfig pc = SmallConfig();
  pc.synthesize = [](Key key) { return "synth-" + std::to_string(key); };
  Partition part(pc);
  Value v;
  Timestamp ts;
  ASSERT_TRUE(part.Get(123, &v, &ts));
  EXPECT_EQ(v, "synth-123");
  EXPECT_EQ(ts, (Timestamp{0, 0}));
  EXPECT_EQ(part.stats().synthesized_gets, 1u);
  EXPECT_EQ(part.size(), 0u);  // synthesis does not materialize
  // A write materializes and then wins over synthesis.
  part.Put(123, "real");
  ASSERT_TRUE(part.Get(123, &v, &ts));
  EXPECT_EQ(v, "real");
}

TEST(Partition, PeekCountsAsPeekNotGet) {
  PartitionConfig pc = SmallConfig();
  pc.synthesize = [](Key key) { return "synth-" + std::to_string(key); };
  Partition part(pc);
  Timestamp ts{5, 5};
  bool resident = true;
  ASSERT_TRUE(part.PeekTimestamp(77, &ts, &resident));  // never written
  EXPECT_EQ(ts, Timestamp{});
  EXPECT_FALSE(resident);
  part.Put(78, "real");
  ASSERT_TRUE(part.PeekTimestamp(78, &ts, &resident));
  EXPECT_EQ(ts, (Timestamp{1, 3}));
  const PartitionStats s = part.stats();
  EXPECT_EQ(s.gets, 0u);
  EXPECT_EQ(s.synthesized_gets, 0u);
  EXPECT_EQ(s.peeks, 2u);
}

TEST(Partition, PrefetchHintsChangeNothing) {
  Partition part(SmallConfig());
  part.Put(42, "hello");
  for (Key k : {Key{42}, Key{43}}) {  // present and absent
    part.PrefetchBucket(HashKey(k));
    part.PrefetchRecord(HashKey(k));
  }
  Value v;
  ASSERT_TRUE(part.Get(42, &v));
  EXPECT_EQ(v, "hello");
  EXPECT_EQ(part.stats().gets, 1u);
}

TEST(Partition, StatsAreExactAcrossThreads) {
  // Per-thread counter stripes must sum to exactly what was issued, whichever
  // stripes the threads land on.
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  Partition part(SmallConfig());
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> puts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 40);
      std::uint64_t my_gets = 0;
      std::uint64_t my_puts = 0;
      Value v;
      Timestamp ts;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Key key = rng.NextBounded(256);
        switch (rng.NextBounded(3)) {
          case 0:
            part.Get(key, &v);
            ++my_gets;
            break;
          case 1:
            ASSERT_TRUE(part.TryPut(key, "v", &ts));  // no gate is ever up
            ++my_puts;
            break;
          default:
            part.Apply(key, "w", Timestamp{static_cast<std::uint32_t>(i), 1});
            ++my_puts;  // applies count whether or not they win
            break;
        }
      }
      gets.fetch_add(my_gets);
      puts.fetch_add(my_puts);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const PartitionStats s = part.stats();
  EXPECT_EQ(gets.load() + puts.load(), std::uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(s.gets, gets.load());
  EXPECT_EQ(s.puts, puts.load());
}

TEST(Partition, ManyKeysForceOverflowChains) {
  // 64 buckets x 7 ways = 448 direct slots; 5000 keys exercise the chains.
  Partition part(SmallConfig());
  for (Key k = 0; k < 5000; ++k) {
    part.Put(k, "v" + std::to_string(k));
  }
  EXPECT_EQ(part.size(), 5000u);
  for (Key k = 0; k < 5000; ++k) {
    Value v;
    ASSERT_TRUE(part.Get(k, &v)) << "key " << k;
    ASSERT_EQ(v, "v" + std::to_string(k));
  }
  EXPECT_GT(part.overflow_buckets(), 0u);
  int deepest = 0;
  for (Key k = 0; k < 5000; ++k) {
    deepest = std::max(deepest, part.ChainDepth(k));
  }
  EXPECT_GT(deepest, 0);
  EXPECT_EQ(part.ChainDepth(5000), -1);
}

// The hashed forms (the live node passes each op's HashKey) and the key
// forms are one implementation: on a shard deep in overflow chains, with
// residency flags up on some records and never-written keys synthesized,
// they read, peek and write the same.
TEST(Partition, HashedFormsMatchKeyForms) {
  PartitionConfig pc = SmallConfig();
  pc.synthesize = [](Key key) { return "synth-" + std::to_string(key); };
  Partition by_key(pc);
  Partition by_hash(pc);
  constexpr Key kKeys = 3000;  // 64 buckets of 7 ways: most keys overflow
  for (Key k = 0; k < kKeys; k += 2) {
    const Value v = "v" + std::to_string(k);
    Timestamp ts_key;
    Timestamp ts_hash;
    ASSERT_TRUE(by_key.TryPut(k, v, &ts_key));
    ASSERT_TRUE(by_hash.TryPut(k, HashKey(k), v, &ts_hash));
    ASSERT_EQ(ts_key, ts_hash);
  }
  for (Key k = 0; k < kKeys; k += 5) {
    by_key.MarkCacheResident(k);
    by_hash.MarkCacheResident(k);
  }
  ASSERT_GT(by_key.overflow_buckets(), 0u);
  int deepest = 0;
  for (Key k = 0; k < kKeys + 100; ++k) {  // written, resident and absent keys
    const std::uint64_t h = HashKey(k);
    deepest = std::max(deepest, by_key.ChainDepth(k));
    Value v_key;
    Value v_hash;
    Timestamp ts_key{9, 9};
    Timestamp ts_hash{9, 9};
    bool res_key = false;
    bool res_hash = true;
    ASSERT_EQ(by_key.Get(k, &v_key, &ts_key, &res_key),
              by_key.Get(k, h, &v_hash, &ts_hash, &res_hash));
    ASSERT_EQ(v_key, v_hash) << "key " << k;
    ASSERT_EQ(ts_key, ts_hash) << "key " << k;
    ASSERT_EQ(res_key, res_hash) << "key " << k;
    ASSERT_EQ(by_key.PeekTimestamp(k, &ts_key, &res_key),
              by_key.PeekTimestamp(k, h, &ts_hash, &res_hash));
    ASSERT_EQ(ts_key, ts_hash) << "key " << k;
    ASSERT_EQ(res_key, res_hash) << "key " << k;
    // A second write through each form: same verdict (refused while the
    // record is resident), same timestamp, same stored bytes.
    Timestamp put_key;
    Timestamp put_hash;
    ASSERT_EQ(by_key.TryPut(k, "w", &put_key), by_hash.TryPut(k, h, "w", &put_hash));
    ASSERT_EQ(put_key, put_hash) << "key " << k;
    ASSERT_TRUE(by_key.Get(k, &v_key, &ts_key));
    ASSERT_TRUE(by_hash.Get(k, h, &v_hash, &ts_hash));
    ASSERT_EQ(v_key, v_hash) << "key " << k;
    ASSERT_EQ(ts_key, ts_hash) << "key " << k;
  }
  EXPECT_GT(deepest, 1);
}

TEST(Partition, KeysSpreadOverTheWholeIndex) {
  // The benchmark's sizing (about four keys per bucket) must keep a shard's
  // keys in their head buckets on every rack size.  The partitioner routes on
  // HashKey(key) % nodes; a bucket index taken from those same low bits leaves
  // a power-of-two rack's shards filling 1/nodes of their buckets and spilling
  // into overflow chains (13.7-36.8% overflow buckets per bucket for 2-8 nodes).
  constexpr Key kKeys = 200'000;
  for (int nodes : {2, 3, 4, 8}) {
    const ModuloPartitioner homes(nodes);
    std::vector<std::unique_ptr<Partition>> shards;
    PartitionConfig pc;
    pc.buckets = std::bit_ceil(kKeys / static_cast<Key>(nodes) / 4);
    for (int i = 0; i < nodes; ++i) {
      shards.push_back(std::make_unique<Partition>(pc));
    }
    for (Key k = 0; k < kKeys; ++k) {
      shards[homes.HomeOf(k)]->Put(k, "x");
    }
    for (int i = 0; i < nodes; ++i) {
      EXPECT_LT(static_cast<double>(shards[i]->overflow_buckets()),
                0.05 * static_cast<double>(pc.buckets))
          << nodes << " nodes, shard " << i;
    }
  }
}

TEST(Partition, EraseFromOverflowChain) {
  Partition part(SmallConfig());
  for (Key k = 0; k < 3000; ++k) {
    part.Put(k, "x");
  }
  for (Key k = 0; k < 3000; k += 3) {
    EXPECT_TRUE(part.Erase(k));
  }
  for (Key k = 0; k < 3000; ++k) {
    EXPECT_EQ(part.Contains(k), k % 3 != 0) << "key " << k;
  }
}

TEST(Partition, ConcurrentReadersWithWriter) {
  // CRCW: one writer updates two keys with matching values; readers must never
  // observe a value inconsistent with the key (copy integrity under seqlock).
  Partition part(SmallConfig());
  part.Put(1, "val-0000");
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread writer([&] {
    for (int i = 1; i <= 50000; ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "val-%04d", i % 10000);
      part.Put(1, buf);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      Value v;
      while (!stop.load(std::memory_order_relaxed)) {
        if (part.Get(1, &v)) {
          if (v.size() != 8 || v.compare(0, 4, "val-") != 0) {
            bad.fetch_add(1);
          }
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
}

TEST(Partition, ConcurrentWritersDistinctKeys) {
  Partition part(SmallConfig());
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&part, t] {
      for (int i = 0; i < 10000; ++i) {
        part.Put(static_cast<Key>(t * 100000 + i % 500), std::to_string(i));
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  EXPECT_EQ(part.size(), 4u * 500u);
}

// ---------------------------------------------------------------------------
// Cache-residency gate (hot-set epoch machinery)
// ---------------------------------------------------------------------------

TEST(Partition, MarkCacheResidentSnapshotsAndGates) {
  Partition part(SmallConfig());
  const Timestamp wts = part.Put(42, "hot-value");

  const Partition::ResidentSnapshot snap = part.MarkCacheResident(42);
  EXPECT_EQ(snap.value, "hot-value");
  EXPECT_EQ(snap.ts, wts);

  // Reads still succeed but report residency inside the same snapshot.
  Value v;
  Timestamp ts;
  bool resident = false;
  ASSERT_TRUE(part.Get(42, &v, &ts, &resident));
  EXPECT_TRUE(resident);
  EXPECT_EQ(v, "hot-value");

  // Direct writes are refused while the hot set owns the key.
  EXPECT_FALSE(part.TryPut(42, "bypass", &ts));
  ASSERT_TRUE(part.Get(42, &v, nullptr, nullptr));
  EXPECT_EQ(v, "hot-value");

  part.ClearCacheResident(42);
  ASSERT_TRUE(part.Get(42, &v, &ts, &resident));
  EXPECT_FALSE(resident);
  ASSERT_TRUE(part.TryPut(42, "after-clear", &ts));
  EXPECT_EQ(ts, (Timestamp{wts.clock + 1, 3}));
}

TEST(Partition, MarkCacheResidentMaterializesAbsentKeys) {
  PartitionConfig pc = SmallConfig();
  pc.synthesize = [](Key key) { return "synth-" + std::to_string(key); };
  Partition part(pc);

  const Partition::ResidentSnapshot snap = part.MarkCacheResident(7);
  EXPECT_EQ(snap.value, "synth-7");
  EXPECT_EQ(snap.ts, Timestamp{});
  EXPECT_EQ(part.size(), 1u);  // the flag needed a record to live on

  bool resident = false;
  Value v;
  ASSERT_TRUE(part.Get(7, &v, nullptr, &resident));
  EXPECT_TRUE(resident);
  EXPECT_EQ(v, "synth-7");
}

TEST(Partition, ApplyBypassesGateAndPreservesFlag) {
  Partition part(SmallConfig());
  part.Put(42, "v1");
  part.MarkCacheResident(42);

  // Protocol traffic (write-backs, late updates) lands while the gate is up
  // and must not drop it.
  EXPECT_TRUE(part.Apply(42, "write-back", Timestamp{9, 1}));
  bool resident = false;
  Value v;
  ASSERT_TRUE(part.Get(42, &v, nullptr, &resident));
  EXPECT_EQ(v, "write-back");
  EXPECT_TRUE(resident);

  // Plain Put (home-node client path, used by the simulator) preserves too.
  part.Put(42, "v2");
  ASSERT_TRUE(part.Get(42, &v, nullptr, &resident));
  EXPECT_TRUE(resident);
}

TEST(Partition, TryPutOnAbsentKeyIsUngated) {
  Partition part(SmallConfig());
  Timestamp ts;
  ASSERT_TRUE(part.TryPut(42, "first", &ts));
  EXPECT_EQ(ts, (Timestamp{1, 3}));
  Value v;
  ASSERT_TRUE(part.Get(42, &v));
  EXPECT_EQ(v, "first");
}

// ---------------------------------------------------------------------------
// Partitioners
// ---------------------------------------------------------------------------

TEST(ModuloPartitioner, CoversAllNodesEvenly) {
  ModuloPartitioner part(9);
  std::vector<int> counts(9, 0);
  for (Key k = 0; k < 90000; ++k) {
    const NodeId n = part.HomeOf(k);
    ASSERT_LT(n, 9);
    counts[n]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 400);
  }
}

// HomeOfHash is HomeOf from the key's hash: the mask path on power-of-two
// racks, the modulo path on the rest.
TEST(Partitioner, HomeOfHashMatchesHomeOf) {
  for (int nodes = 1; nodes <= 9; ++nodes) {
    const ModuloPartitioner part(nodes);
    for (Key k = 0; k < 1'000'000; ++k) {
      const NodeId home = part.HomeOf(k);
      ASSERT_EQ(home, static_cast<NodeId>(HashKey(k) % static_cast<std::uint64_t>(nodes)))
          << "nodes " << nodes << " key " << k;
      ASSERT_EQ(part.HomeOfHash(HashKey(k)), home) << "nodes " << nodes << " key " << k;
    }
  }
}

TEST(ConsistentHashRing, Deterministic) {
  ConsistentHashRing a(9, 128, 5), b(9, 128, 5);
  for (Key k = 0; k < 1000; ++k) {
    EXPECT_EQ(a.HomeOf(k), b.HomeOf(k));
  }
}

TEST(ConsistentHashRing, ReasonableBalance) {
  ConsistentHashRing ring(9, 256, 1);
  std::vector<int> counts(9, 0);
  for (Key k = 0; k < 90000; ++k) {
    counts[ring.HomeOf(k)]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 5000);   // no node starved
    EXPECT_LT(c, 16000);  // no node doubled
  }
}

TEST(ConsistentHashRing, MinimalRemappingOnNodeRemoval) {
  ConsistentHashRing ring(9, 128, 2);
  std::unordered_map<Key, NodeId> before;
  for (Key k = 0; k < 20000; ++k) {
    before[k] = ring.HomeOf(k);
  }
  ring.RemoveNode(4);
  int moved = 0;
  for (const auto& [k, home] : before) {
    const NodeId now = ring.HomeOf(k);
    if (home == 4) {
      EXPECT_NE(now, 4);  // must move somewhere
    } else if (now != home) {
      ++moved;  // keys not on node 4 should almost never move
    }
  }
  EXPECT_EQ(moved, 0);
}

TEST(ConsistentHashRing, AddNodeTakesFairShare) {
  ConsistentHashRing ring(8, 128, 9);
  ring.AddNode(8);
  int on_new = 0;
  const int total = 30000;
  for (Key k = 0; k < static_cast<Key>(total); ++k) {
    if (ring.HomeOf(k) == 8) {
      ++on_new;
    }
  }
  EXPECT_NEAR(static_cast<double>(on_new) / total, 1.0 / 9.0, 0.04);
}

}  // namespace
}  // namespace cckvs
