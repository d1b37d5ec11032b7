// google-benchmark microbenches for the data-plane components: the MICA-like
// store (single- and multi-threaded CRCW), seqlocks, the Zipf sampler, op
// generation, the symmetric cache probe path and the Space-Saving sketch.
//
// These measure the real (wall-clock) cost of the concurrent data structures —
// the part of the system that runs as genuine multithreaded code rather than
// under the deterministic simulator.

#include <benchmark/benchmark.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/cache/symmetric_cache.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/store/partition.h"
#include "src/store/partitioner.h"
#include "src/store/seqlock.h"
#include "src/topk/flat_space_saving.h"
#include "src/workload/workload.h"

namespace cckvs {
namespace {

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

void BM_StoreGetHit(benchmark::State& state) {
  PartitionConfig pc;
  pc.buckets = 1 << 16;
  Partition part(pc);
  const int keys = 100'000;
  for (Key k = 0; k < keys; ++k) {
    part.Put(k, SynthesizeValue(k, 40));
  }
  Rng rng(1);
  Value v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(part.Get(rng.NextBounded(keys), &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreGetHit);

void BM_StorePut(benchmark::State& state) {
  PartitionConfig pc;
  pc.buckets = 1 << 16;
  Partition part(pc);
  const int keys = 100'000;
  Rng rng(2);
  const Value v = SynthesizeValue(7, 40);
  for (auto _ : state) {
    part.Put(rng.NextBounded(keys), v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StorePut);

void BM_StoreGetSynthesized(benchmark::State& state) {
  PartitionConfig pc;
  pc.buckets = 1 << 12;
  pc.synthesize = [](Key key) { return SynthesizeValue(key, 40); };
  Partition part(pc);
  Rng rng(3);
  Value v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(part.Get(rng.Next(), &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreGetSynthesized);

// CRCW: concurrent readers with a 5% writer mix, the §6.2 concurrency model.
void BM_StoreCrcwMixed(benchmark::State& state) {
  static Partition* part = nullptr;
  if (state.thread_index() == 0) {
    PartitionConfig pc;
    pc.buckets = 1 << 16;
    part = new Partition(pc);
    for (Key k = 0; k < 100'000; ++k) {
      part->Put(k, SynthesizeValue(k, 40));
    }
  }
  Rng rng(100 + static_cast<std::uint64_t>(state.thread_index()));
  Value v;
  const Value w = SynthesizeValue(9, 40);
  for (auto _ : state) {
    const Key k = rng.NextBounded(100'000);
    if (rng.NextBool(0.05)) {
      part->Put(k, w);
    } else {
      benchmark::DoNotOptimize(part->Get(k, &v));
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete part;
    part = nullptr;
  }
}
BENCHMARK(BM_StoreCrcwMixed)->Threads(1)->Threads(2)->Threads(4);

constexpr std::uint64_t kRoundStoreKeys = 1'000'000;

// A prefilled 1M-key store split over `shards` shards at read_skew's sizing
// (about four keys per bucket), built once per shard count.
const std::vector<std::unique_ptr<Partition>>& PrefilledShards(int shards) {
  static std::map<int, std::vector<std::unique_ptr<Partition>>> built;
  auto& v = built[shards];
  if (v.empty()) {
    const ModuloPartitioner homes(shards);
    for (int i = 0; i < shards; ++i) {
      PartitionConfig pc;
      pc.buckets = kRoundStoreKeys / static_cast<std::uint64_t>(shards) / 4;
      v.push_back(std::make_unique<Partition>(pc));
    }
    for (Key k = 0; k < kRoundStoreKeys; ++k) {
      v[homes.HomeOf(k)]->Put(k, SynthesizeValue(k, 40));
    }
  }
  return v;
}

// One issue round of a live node on read_skew's miss path: 32 Zipf(0.99) GETs
// against the prefilled store, read one after another (serial) or after the
// live node's two prefetch passes over the round (prefetched).  Time is per
// round; items count GETs.  overflow_share is the share of the GETs whose key
// sits past its head bucket, which the record prefetch cannot reach.
void BM_PartitionGetRound(benchmark::State& state, bool prefetch, int shards) {
  constexpr std::size_t kRound = 32;
  constexpr std::size_t kRounds = 4096;  // pregenerated, replayed cyclically
  const ModuloPartitioner homes(shards);
  const auto& store = PrefilledShards(shards);
  const ZipfSampler zipf(kRoundStoreKeys, 0.99);
  const KeyScrambler scrambler(kRoundStoreKeys, 11);
  Rng rng(12);
  std::vector<Key> keys(kRound * kRounds);
  std::vector<const Partition*> home(keys.size());
  std::size_t overflowed = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = scrambler.RankToKey(zipf.Sample(rng) - 1);
    home[i] = store[homes.HomeOf(keys[i])].get();
    overflowed += home[i]->ChainDepth(keys[i]) > 0 ? 1 : 0;
  }
  Value v;
  std::size_t round = 0;
  for (auto _ : state) {
    const std::size_t base = round * kRound;
    round = (round + 1) % kRounds;
    if (prefetch) {
      for (std::size_t i = base; i < base + kRound; ++i) {
        home[i]->PrefetchBucket(keys[i]);
      }
      for (std::size_t i = base; i < base + kRound; ++i) {
        home[i]->PrefetchRecord(keys[i]);
      }
    }
    for (std::size_t i = base; i < base + kRound; ++i) {
      benchmark::DoNotOptimize(home[i]->Get(keys[i], &v));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kRound));
  state.counters["overflow_share"] =
      static_cast<double>(overflowed) / static_cast<double>(keys.size());
}
BENCHMARK_CAPTURE(BM_PartitionGetRound, serial, false, 4);
BENCHMARK_CAPTURE(BM_PartitionGetRound, prefetched, true, 4);
BENCHMARK_CAPTURE(BM_PartitionGetRound, prefetched_8shards, true, 8);

// ---------------------------------------------------------------------------
// Seqlock
// ---------------------------------------------------------------------------

void BM_SeqlockReadUncontended(benchmark::State& state) {
  Seqlock lock;
  std::uint64_t data = 42;
  for (auto _ : state) {
    std::uint32_t v;
    std::uint64_t copy;
    do {
      v = lock.ReadBegin();
      copy = data;
    } while (lock.ReadRetry(v));
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_SeqlockReadUncontended);

void BM_SeqlockWrite(benchmark::State& state) {
  Seqlock lock;
  std::uint64_t data = 0;
  for (auto _ : state) {
    SeqlockWriteGuard guard(lock);
    benchmark::DoNotOptimize(++data);
  }
}
BENCHMARK(BM_SeqlockWrite);

// ---------------------------------------------------------------------------
// Zipf sampling
// ---------------------------------------------------------------------------

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler sampler(250'000'000, 0.99);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

void BM_KeyScramble(benchmark::State& state) {
  KeyScrambler scrambler(250'000'000, 9);
  std::uint64_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scrambler.RankToKey(r++ % 250'000'000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeyScramble);

void BM_WorkloadNext(benchmark::State& state, const WorkloadConfig& cfg) {
  WorkloadGenerator gen(cfg, 1, 6);
  Op op;
  for (auto _ : state) {
    gen.NextInto(&op);
    benchmark::DoNotOptimize(op.key);
  }
  state.SetItemsProcessed(state.iterations());
}

WorkloadConfig PaperWorkload() {
  WorkloadConfig cfg;
  cfg.keyspace = 250'000'000;
  cfg.write_ratio = 0.01;
  return cfg;
}

// The node_skew_l1 benchmark workload as node 1 sees it: 100k keys, 5% writes,
// ranks rotated by one stride.  Its op cost is dominated by the rank-to-key
// Feistel, whose cover domain (2^18) makes it cycle-walk.
WorkloadConfig NodeSkewWorkload() {
  WorkloadConfig cfg;
  cfg.keyspace = 100'000;
  cfg.write_ratio = 0.05;
  cfg.node_rank_stride = 6250;
  return cfg;
}
BENCHMARK_CAPTURE(BM_WorkloadNext, paper, PaperWorkload());
BENCHMARK_CAPTURE(BM_WorkloadNext, node_skew, NodeSkewWorkload());

// ---------------------------------------------------------------------------
// Symmetric cache + top-k
// ---------------------------------------------------------------------------

void BM_CacheProbeHit(benchmark::State& state) {
  SymmetricCache cache(250'000);
  std::vector<Key> keys;
  for (Key k = 0; k < 250'000; ++k) {
    keys.push_back(k);
  }
  cache.InstallHotSet(keys);
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Probe(rng.NextBounded(250'000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheProbeHit);

void BM_CacheProbeMiss(benchmark::State& state) {
  SymmetricCache cache(1000);
  std::vector<Key> keys;
  for (Key k = 0; k < 1000; ++k) {
    keys.push_back(k);
  }
  cache.InstallHotSet(keys);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Probe(1'000'000 + rng.Next() % 1'000'000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheProbeMiss);

// The read_skew benchmark workload's probe: the 1000 hottest of 1M Zipf-0.99
// keys cached, probed with that generator's keys (about half hit), so the
// hit/miss branches mispredict as they do on a live node.
void BM_CacheProbe(benchmark::State& state, const WorkloadConfig& cfg) {
  constexpr std::size_t kCapacity = 1000;
  WorkloadGenerator gen(cfg, 1, 7);
  SymmetricCache cache(kCapacity);
  cache.InstallHotSet(gen.HottestKeys(kCapacity));
  std::vector<Key> keys(std::size_t{1} << 16);
  Op op;
  for (Key& key : keys) {
    gen.NextInto(&op);
    key = op.key;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Probe(keys[i++ & (keys.size() - 1)]));
  }
  state.counters["hit_rate"] =
      static_cast<double>(cache.stats().hits) / static_cast<double>(cache.stats().probes);
  state.SetItemsProcessed(state.iterations());
}

WorkloadConfig ReadSkewWorkload() {
  WorkloadConfig cfg;
  cfg.keyspace = 1'000'000;
  cfg.write_ratio = 0.0;
  return cfg;
}
BENCHMARK_CAPTURE(BM_CacheProbe, read_skew, ReadSkewWorkload());

// The epoch coordinator's shape: a 1M-key Zipf stream into 4096 counters.
void BM_SpaceSavingOffer(benchmark::State& state) {
  FlatSpaceSaving ss(4096);
  ZipfSampler sampler(1'000'000, 0.99);
  Rng rng(10);
  for (auto _ : state) {
    ss.Offer(sampler.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingOffer);

// One node's L1 admission sketch in node_skew_l1: capacity 8192 (twice the
// 4096-entry L1), offered the GETs of a rotated 100k-key node that miss the
// 1000-key symmetric hot set, and aged every capacity * 8 offers as
// LiveNode does.  The stream is precomputed so only Offer is timed.
void BM_SpaceSavingOfferL1(benchmark::State& state) {
  WorkloadConfig cfg = NodeSkewWorkload();
  cfg.write_ratio = 0.0;
  WorkloadGenerator node(cfg, 1, 12);
  WorkloadGenerator global(cfg, 0, 12);
  const std::vector<Key> hot = global.HottestKeys(1000);
  const std::unordered_set<Key> symmetric(hot.begin(), hot.end());
  std::vector<Key> misses;
  while (misses.size() < (1u << 20)) {
    const Key key = node.Next().key;
    if (symmetric.count(key) == 0) {
      misses.push_back(key);
    }
  }
  FlatSpaceSaving ss(8192);
  std::size_t i = 0;
  std::uint64_t offers = 0;
  for (auto _ : state) {
    std::uint64_t guaranteed = 0;
    ss.Offer(misses[i], &guaranteed);
    benchmark::DoNotOptimize(guaranteed);
    i = (i + 1) & (misses.size() - 1);
    if (++offers % (ss.capacity() * 8) == 0) {
      ss.DecayHalve();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingOfferL1)->Name("BM_SpaceSavingOffer/l1");

}  // namespace
}  // namespace cckvs

BENCHMARK_MAIN();
