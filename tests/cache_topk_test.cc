// Unit tests for the symmetric cache and the top-k popularity machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cache/symmetric_cache.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/topk/epoch_coordinator.h"
#include "src/topk/flat_space_saving.h"

namespace cckvs {
namespace {

// ---------------------------------------------------------------------------
// SymmetricCache
// ---------------------------------------------------------------------------

TEST(SymmetricCache, HeaderIsEightBytes) {
  // §6.2: "Each key-value pair stored in the cache has an 8B header."
  static_assert(sizeof(CacheEntryHeader) == 8);
  CacheEntryHeader h;
  h.state = static_cast<std::uint8_t>(CacheState::kValid);
  h.version = 0xdeadbeef;
  h.last_writer = 5;
  h.ack_count = 7;
  EXPECT_EQ(sizeof(h), 8u);
}

TEST(SymmetricCache, ProbeCountsHitsAndMisses) {
  SymmetricCache cache(10);
  cache.InstallHotSet({1, 2, 3});
  EXPECT_TRUE(cache.Probe(1));
  EXPECT_FALSE(cache.Probe(99));
  EXPECT_EQ(cache.stats().probes, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SymmetricCache, FillMakesEntryValid) {
  SymmetricCache cache(4);
  cache.InstallHotSet({5});
  CacheEntry* e = cache.Find(5);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state(), CacheState::kFilling);
  cache.Fill(5, "value", Timestamp{3, 1});
  EXPECT_EQ(e->state(), CacheState::kValid);
  EXPECT_EQ(e->value, "value");
  EXPECT_EQ(e->ts(), (Timestamp{3, 1}));
  EXPECT_EQ(e->value_ts, (Timestamp{3, 1}));
}

TEST(SymmetricCache, FillDoesNotRegressAdvancedEntry) {
  // A hot write can race ahead of the epoch fill; the late fill must lose.
  SymmetricCache cache(4);
  cache.InstallHotSet({5});
  CacheEntry* e = cache.Find(5);
  e->value = "written";
  e->set_ts(Timestamp{10, 2});
  e->set_state(CacheState::kValid);
  cache.Fill(5, "stale-fill", Timestamp{1, 0});
  EXPECT_EQ(e->value, "written");
  EXPECT_EQ(e->ts(), (Timestamp{10, 2}));
}

TEST(SymmetricCache, InstallEvictsDepartingKeys) {
  SymmetricCache cache(4);
  cache.InstallHotSet({1, 2});
  cache.Fill(1, "one", Timestamp{1, 0});
  cache.Fill(2, "two", Timestamp{1, 0});
  const auto dirty = cache.InstallHotSet({2, 3});
  EXPECT_TRUE(dirty.empty());  // nothing dirty yet
  EXPECT_EQ(cache.Find(1), nullptr);
  EXPECT_NE(cache.Find(2), nullptr);
  EXPECT_NE(cache.Find(3), nullptr);
  EXPECT_EQ(cache.Find(2)->value, "two");  // surviving keys keep their value
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(SymmetricCache, DirtyEvictionsReturnedForWriteBack) {
  SymmetricCache cache(4);
  cache.InstallHotSet({1, 2});
  cache.Fill(1, "one", Timestamp{1, 0});
  cache.Fill(2, "two", Timestamp{1, 0});
  CacheEntry* e = cache.Find(1);
  e->value = "one-updated";
  e->value_ts = Timestamp{5, 3};
  e->set_ts(Timestamp{5, 3});
  e->dirty = true;
  const auto dirty = cache.InstallHotSet({2});
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].key, 1u);
  EXPECT_EQ(dirty[0].value, "one-updated");
  EXPECT_EQ(dirty[0].ts, (Timestamp{5, 3}));
  EXPECT_EQ(cache.stats().dirty_evictions, 1u);
}

TEST(SymmetricCache, DirtyEvictionUsesInstalledValueTs) {
  // Invalid entry: header ts promised a newer write than the installed value.
  SymmetricCache cache(4);
  cache.InstallHotSet({1});
  cache.Fill(1, "installed", Timestamp{2, 0});
  CacheEntry* e = cache.Find(1);
  e->dirty = true;
  e->set_ts(Timestamp{7, 1});  // promised by an in-flight write
  e->set_state(CacheState::kInvalid);
  const auto dirty = cache.InstallHotSet({});
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].value, "installed");
  EXPECT_EQ(dirty[0].ts, (Timestamp{2, 0}));  // never the promised timestamp
}

TEST(SymmetricCache, PendingFillsListsUnfilledKeys) {
  SymmetricCache cache(8);
  cache.InstallHotSet({1, 2, 3});
  cache.Fill(2, "x", Timestamp{1, 0});
  const auto pending = cache.PendingFills();
  const std::unordered_set<Key> set(pending.begin(), pending.end());
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.count(1));
  EXPECT_TRUE(set.count(3));
}

TEST(SymmetricCache, ProbeReturnsEntry) {
  SymmetricCache cache(4);
  cache.InstallHotSet({7, 8});
  cache.Fill(7, "seven", Timestamp{2, 1});
  CacheEntry* hit = cache.Probe(7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit, cache.Find(7));
  EXPECT_EQ(hit->value, "seven");
  EXPECT_EQ(hit->state(), CacheState::kValid);
  EXPECT_EQ(cache.Probe(8), cache.Find(8));
  EXPECT_EQ(cache.Probe(8)->state(), CacheState::kFilling);
  EXPECT_EQ(cache.Probe(9), nullptr);
  EXPECT_EQ(cache.stats().probes, 4u);
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

// The key whose hash product is `product`: multiplying by the inverse of the
// index hash's (odd) multiplier mod 2^64 undoes the hash.
Key KeyWithProduct(std::uint64_t product) {
  // An odd a is its own inverse mod 8; each Newton step doubles the correct
  // low bits (3, 6, 12, 24, 48, 96).
  std::uint64_t inv = SymmetricCache::kHashMultiplier;
  for (int i = 0; i < 5; ++i) {
    inv *= 2 - SymmetricCache::kHashMultiplier * inv;
  }
  return product * inv;
}

// Drives random Admit / Evict / InstallHotSet / Fill / Probe / Find and hot
// writes against a std::unordered_map model.  Key pools mix random keys with
// clusters that share a home slot (the first, middle and last slot of the
// initial index, so the last cluster's probe run wraps around), and phases
// push membership up to 3x capacity, which grows the index and adds entry
// chunks, before evicting back down.  Checks membership, pending fills, entry
// contents and exact stats, and that no surviving entry ever moves.
TEST(SymmetricCache, MatchesReferenceUnderChurn) {
  struct Model {
    bool filled = false;
    bool dirty = false;
    Value value;
    Timestamp value_ts{};
  };
  for (const std::size_t capacity : {1, 2, 16, 1000}) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    SymmetricCache cache(capacity);
    Rng rng(capacity + 17);
    const std::size_t slots = std::bit_ceil(2 * capacity);
    const int slot_bits = std::countr_zero(slots);
    std::vector<Key> pool;
    for (const std::size_t home : {std::size_t{0}, slots / 2, slots - 1}) {
      for (std::uint64_t low = 0; low < 6; ++low) {
        // Low product bits far below the slot bits: the cluster shares its
        // home slot in every index size the test reaches.
        const std::uint64_t product = (std::uint64_t{home} << (64 - slot_bits)) | low;
        pool.push_back(KeyWithProduct(product));
        ASSERT_EQ(pool.back() * SymmetricCache::kHashMultiplier, product);
      }
    }
    while (pool.size() < 4 * capacity + 18) {
      pool.push_back(rng.Next());
    }

    std::unordered_map<Key, Model> model;
    std::unordered_map<Key, const CacheEntry*> address;
    CacheStats want;
    std::uint32_t clock = 0;
    const auto pick = [&] { return pool[rng.NextBounded(pool.size())]; };
    const auto check_entry = [&](Key key, const CacheEntry* entry) {
      const auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_EQ(entry, nullptr) << key;
        return;
      }
      ASSERT_NE(entry, nullptr) << key;
      EXPECT_EQ(entry, address.at(key)) << key;
      EXPECT_EQ(entry->state(),
                it->second.filled ? CacheState::kValid : CacheState::kFilling);
      EXPECT_EQ(entry->dirty, it->second.dirty);
      EXPECT_EQ(entry->value, it->second.value);
      EXPECT_EQ(entry->value_ts, it->second.value_ts);
    };
    const auto admit = [&](Key key) {
      cache.Admit(key);
      if (model.emplace(key, Model{}).second) {
        address[key] = cache.Find(key);
      }
    };
    const auto evicted = [&](Key key, bool dirty, const SymmetricCache::Eviction& ev) {
      const Model& m = model.at(key);
      ++want.evictions;
      EXPECT_EQ(dirty, m.dirty);
      if (m.dirty) {
        ++want.dirty_evictions;
        EXPECT_EQ(ev.key, key);
        EXPECT_EQ(ev.value, m.value);
        EXPECT_EQ(ev.ts, m.value_ts);
      }
      model.erase(key);
      address.erase(key);
    };
    const auto check_all = [&] {
      ASSERT_EQ(cache.size(), model.size());
      const std::vector<Key> keys = cache.Keys();
      EXPECT_EQ(std::unordered_set<Key>(keys.begin(), keys.end()).size(), keys.size());
      std::unordered_set<Key> want_keys;
      std::unordered_set<Key> want_pending;
      for (const auto& [key, m] : model) {
        want_keys.insert(key);
        if (!m.filled) {
          want_pending.insert(key);
        }
        check_entry(key, cache.Find(key));
      }
      EXPECT_EQ(std::unordered_set<Key>(keys.begin(), keys.end()), want_keys);
      const std::vector<Key> pending = cache.PendingFills();
      EXPECT_EQ(std::unordered_set<Key>(pending.begin(), pending.end()), want_pending);
      const CacheStats& got = cache.stats();
      EXPECT_EQ(got.probes, want.probes);
      EXPECT_EQ(got.hits, want.hits);
      EXPECT_EQ(got.misses, want.misses);
      EXPECT_EQ(got.fills, want.fills);
      EXPECT_EQ(got.evictions, want.evictions);
      EXPECT_EQ(got.dirty_evictions, want.dirty_evictions);
    };

    std::size_t peak = 0;
    for (int phase = 0; phase < 6; ++phase) {
      // Even phases grow membership toward 3x capacity, odd ones shrink it.
      const bool grow = phase % 2 == 0;
      const int ops = static_cast<int>(8 * capacity) + 200;
      for (int op = 0; op < ops; ++op) {
        const Key key = pick();
        // Grow phases: admit 40%, evict 5%, no installs (an install shrinks
        // membership to capacity).  Shrink phases: admit 5%, evict 40%,
        // install 3%.  Either way fill 10%, write 10%, probe the rest.
        const std::uint64_t dice = rng.NextBounded(100);
        if (dice < (grow ? 40u : 5u)) {
          if (model.size() < 3 * capacity) {
            admit(key);
          }
        } else if (dice < 45) {
          SymmetricCache::Eviction ev{};
          const bool dirty = cache.Evict(key, &ev);
          if (model.count(key) != 0) {
            evicted(key, dirty, ev);
          } else {
            EXPECT_FALSE(dirty);
          }
        } else if (dice < 55) {
          if (model.count(key) != 0) {
            const Timestamp ts{++clock, 1};
            const Value value = "fill-" + std::to_string(clock);
            cache.Fill(key, value, ts);
            Model& m = model.at(key);
            if (!m.filled) {
              ++want.fills;
              m = Model{true, false, value, ts};
            }
          }
        } else if (dice < 65) {
          // A hot write through the probed entry, as an engine makes one.
          if (CacheEntry* entry = cache.Find(key); entry != nullptr) {
            const Timestamp ts{++clock, 2};
            entry->value = "write-" + std::to_string(clock);
            entry->value_ts = ts;
            entry->set_ts(ts);
            entry->set_state(CacheState::kValid);
            entry->dirty = true;
            model.at(key) = Model{true, true, entry->value, ts};
          }
        } else if (!grow && dice < 68) {
          std::vector<Key> next;
          const std::size_t n = rng.NextBounded(capacity + 1);
          for (std::size_t i = 0; i < n; ++i) {
            next.push_back(pick());  // duplicates are admitted once
          }
          const std::unordered_set<Key> fresh(next.begin(), next.end());
          std::unordered_map<Key, SymmetricCache::Eviction> dirty_by_key;
          for (auto& ev : cache.InstallHotSet(next)) {
            EXPECT_EQ(dirty_by_key.count(ev.key), 0u);
            dirty_by_key[ev.key] = ev;
          }
          std::vector<Key> leaving;
          for (const auto& [k, m] : model) {
            if (fresh.count(k) == 0) {
              leaving.push_back(k);
            }
          }
          std::size_t dirty_leaving = 0;
          for (const Key k : leaving) {
            const bool dirty = model.at(k).dirty;
            dirty_leaving += dirty;
            EXPECT_EQ(dirty_by_key.count(k), dirty ? 1u : 0u);
            evicted(k, dirty, dirty ? dirty_by_key[k] : SymmetricCache::Eviction{});
          }
          EXPECT_EQ(dirty_by_key.size(), dirty_leaving);
          for (const Key k : next) {
            if (model.emplace(k, Model{}).second) {
              address[k] = cache.Find(k);
            }
          }
        } else {
          const CacheEntry* entry = cache.Probe(key);
          ++want.probes;
          ++(model.count(key) != 0 ? want.hits : want.misses);
          check_entry(key, entry);
          EXPECT_EQ(entry, cache.Find(key));
        }
        peak = std::max(peak, model.size());
        if (op % 97 == 0) {
          check_all();
        }
      }
      check_all();
    }
    // Membership really reached the growth path: past 3/4 of the initial
    // index and past one chunk of entries.
    EXPECT_GT(4 * peak, 3 * slots);
    EXPECT_GT(peak, capacity);
  }
}

TEST(SymmetricCacheDeathTest, OverCapacityInstallAborts) {
  SymmetricCache cache(2);
  EXPECT_DEATH(cache.InstallHotSet({1, 2, 3}), "CHECK");
}

// ---------------------------------------------------------------------------
// FlatSpaceSaving: the Space-Saving guarantees the coordinator relies on
// (operation-level tests live in l1_tail_test.cc)
// ---------------------------------------------------------------------------

TEST(FlatSpaceSaving, CountsNeverUnderestimate) {
  // Space-Saving guarantee: estimate >= true count.
  FlatSpaceSaving ss(20);
  Rng rng(5);
  std::vector<int> truth(200, 0);
  ZipfSampler sampler(200, 1.0);
  for (int i = 0; i < 20000; ++i) {
    const Key k = sampler.Sample(rng);
    truth[k - 1]++;
    ss.Offer(k);
  }
  for (const auto& e : ss.TopK(20)) {
    EXPECT_GE(e.count, static_cast<std::uint64_t>(truth[e.key - 1]));
  }
}

TEST(FlatSpaceSaving, RecallsTrueTopKOnZipf) {
  // Capacity must push the noise floor (stream/capacity) below the true count
  // of the ranks we want recalled: rank 8 of Zipf(0.99) gets ~1% of a 300k
  // stream (~2.9k), so capacity 256 (floor ~1.2k) suffices.
  const std::size_t k = 16;
  FlatSpaceSaving ss(256);
  Rng rng(11);
  ZipfSampler sampler(100000, 0.99);
  for (int i = 0; i < 300000; ++i) {
    ss.Offer(sampler.Sample(rng));
  }
  const auto top = ss.TopK(k);
  std::unordered_set<Key> reported;
  for (const auto& e : top) {
    reported.insert(e.key);
  }
  // The true top-8 ranks (keys 1..8) must all be reported within the top-16.
  int found = 0;
  for (Key rank = 1; rank <= 8; ++rank) {
    if (reported.count(rank)) {
      ++found;
    }
  }
  EXPECT_GE(found, 7);
}

// Drives each capacity through a Zipf stream far wider than the sketch, with
// and without the L1's aging cadence (DecayHalve every capacity * 8 offers),
// and checks the Space-Saving bounds against exact counts.  Under decay the
// estimate bounds the count halved at every decay (floor), while count - error
// still bounds the raw count.
TEST(FlatSpaceSaving, InvariantsHoldUnderChurnAndDecay) {
  constexpr std::uint64_t kKeys = 100'000;
  constexpr int kOffers = 400'000;
  constexpr int kCheckEvery = 100'000;
  ZipfSampler sampler(kKeys, 0.99);
  KeyScrambler scrambler(kKeys, 3);
  for (const std::size_t capacity : {1, 2, 3, 16, 8192}) {
    for (const bool decay : {false, true}) {
      SCOPED_TRACE(testing::Message() << "capacity " << capacity << " decay " << decay);
      FlatSpaceSaving ss(capacity);
      Rng rng(capacity * 2 + decay);
      std::vector<std::uint64_t> raw(kKeys, 0);
      std::vector<std::uint64_t> halved(kKeys, 0);  // as of decay stamp[k]
      std::vector<std::uint64_t> stamp(kKeys, 0);
      std::uint64_t decays = 0;
      std::size_t distinct = 0;
      const auto decayed = [&](Key k) -> std::uint64_t& {
        const std::uint64_t shift = decays - stamp[k];
        halved[k] = shift >= 64 ? 0 : halved[k] >> shift;
        stamp[k] = decays;
        return halved[k];
      };
      for (int i = 1; i <= kOffers; ++i) {
        const Key k = scrambler.RankToKey(sampler.Sample(rng) - 1);
        distinct += raw[k]++ == 0;
        ++decayed(k);
        std::uint64_t guaranteed = 0;
        const std::uint64_t est = ss.Offer(k, &guaranteed);
        ASSERT_GE(est, decayed(k));
        ASSERT_LE(guaranteed, raw[k]);
        ASSERT_EQ(est, ss.EstimateOf(k));
        if (decay && i % (capacity * 8) == 0) {
          ss.DecayHalve();
          ++decays;
        }
        if (i % kCheckEvery != 0) {
          continue;
        }
        const auto top = ss.TopK(capacity);
        ASSERT_EQ(top.size(), std::min(capacity, distinct));
        std::uint64_t sum = 0;
        std::unordered_set<Key> tracked;
        for (std::size_t j = 0; j < top.size(); ++j) {
          const auto& e = top[j];
          if (j > 0) {
            ASSERT_GE(top[j - 1].count, e.count);
          }
          ASSERT_TRUE(tracked.insert(e.key).second);
          ASSERT_EQ(ss.EstimateOf(e.key), e.count);
          ASSERT_GE(e.count, decayed(e.key));
          ASSERT_LE(e.count - e.error, raw[e.key]);
          sum += e.count;
        }
        if (decay) {
          ASSERT_LE(sum, static_cast<std::uint64_t>(i));
        } else {
          ASSERT_EQ(sum, static_cast<std::uint64_t>(i));
        }
        // An untracked key reads 0, and its true count is at most the
        // minimum tracked count.
        const std::uint64_t min_count = top.back().count;
        for (Key u = 0; u < kKeys; ++u) {
          if (tracked.count(u) == 0) {
            ASSERT_EQ(ss.EstimateOf(u), 0u);
            ASSERT_LE(decayed(u), min_count);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// EpochCoordinator
// ---------------------------------------------------------------------------

TEST(EpochCoordinator, PublishesAfterEpoch) {
  EpochCoordinatorConfig cfg;
  cfg.hot_set_size = 4;
  cfg.requests_per_epoch = 100;
  cfg.sample_probability = 1.0;
  EpochCoordinator coord(cfg);
  EXPECT_TRUE(coord.CurrentHotSet().empty());
  bool closed = false;
  for (int i = 0; i < 100; ++i) {
    closed = coord.OnRequest(static_cast<Key>(i % 8));
  }
  EXPECT_TRUE(closed);
  EXPECT_EQ(coord.epoch(), 1u);
  EXPECT_EQ(coord.CurrentHotSet().size(), 4u);
}

TEST(EpochCoordinator, LearnsZipfHotSet) {
  EpochCoordinatorConfig cfg;
  cfg.hot_set_size = 10;
  cfg.requests_per_epoch = 50000;
  cfg.sample_probability = 0.5;
  cfg.seed = 3;
  EpochCoordinator coord(cfg);
  Rng rng(8);
  ZipfSampler sampler(10000, 0.99);
  for (int i = 0; i < 50000; ++i) {
    coord.OnRequest(sampler.Sample(rng));
  }
  ASSERT_EQ(coord.epoch(), 1u);
  const auto& hot = coord.CurrentHotSet();
  std::unordered_set<Key> set(hot.begin(), hot.end());
  // Ranks 1..5 are each >1.5% of the stream; sampling at 50% finds them.
  for (Key rank = 1; rank <= 5; ++rank) {
    EXPECT_TRUE(set.count(rank)) << "missing hot rank " << rank;
  }
}

TEST(EpochCoordinator, StableDistributionLowChurn) {
  EpochCoordinatorConfig cfg;
  cfg.hot_set_size = 8;
  cfg.requests_per_epoch = 30000;
  cfg.sample_probability = 1.0;
  EpochCoordinator coord(cfg);
  Rng rng(2);
  ZipfSampler sampler(1000, 1.2);  // heavy skew: clear-cut hot set
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int i = 0; i < 30000; ++i) {
      coord.OnRequest(sampler.Sample(rng));
    }
  }
  EXPECT_EQ(coord.epoch(), 3u);
  // §4: "we expect the set of most popular keys to evolve slowly, with only a
  // handful of keys removed/added every few seconds."
  EXPECT_LE(coord.last_epoch_churn(), 2u);
}

TEST(EpochCoordinator, DetectsPopularityShift) {
  EpochCoordinatorConfig cfg;
  cfg.hot_set_size = 4;
  cfg.requests_per_epoch = 20000;
  cfg.sample_probability = 1.0;
  EpochCoordinator coord(cfg);
  for (int i = 0; i < 20000; ++i) {
    coord.OnRequest(static_cast<Key>(i % 4 + 1));  // keys 1..4 hot
  }
  const auto first = coord.CurrentHotSet();
  for (int i = 0; i < 20000; ++i) {
    coord.OnRequest(static_cast<Key>(i % 4 + 101));  // keys 101..104 take over
  }
  const auto second = coord.CurrentHotSet();
  std::unordered_set<Key> set(second.begin(), second.end());
  int newly_hot = 0;
  for (Key k = 101; k <= 104; ++k) {
    newly_hot += set.count(k) ? 1 : 0;
  }
  EXPECT_GE(newly_hot, 3);
  EXPECT_NE(first, second);
}

}  // namespace
}  // namespace cckvs
