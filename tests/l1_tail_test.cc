// Unit tests for the node-private L1 tail tier: the LRU L1TailCache, the flat
// Space-Saving admission sketch, and the Partition::PeekTimestamp hook the
// Lin validation path relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/cache/l1_tail.h"
#include "src/store/partition.h"
#include "src/topk/flat_space_saving.h"
#include "src/workload/workload.h"

namespace cckvs {
namespace {

// ---------------------------------------------------------------------------
// L1TailCache
// ---------------------------------------------------------------------------

TEST(L1TailCache, FillGetInvalidate) {
  L1TailCache l1(4, L1Policy::kLru, 16);
  EXPECT_EQ(l1.size(), 0u);

  l1.Fill(7, "seven", Timestamp{3, 1});
  Value v;
  Timestamp ts;
  ASSERT_TRUE(l1.Get(7, &v, &ts));
  EXPECT_EQ(v, "seven");
  EXPECT_EQ(ts, (Timestamp{3, 1}));
  EXPECT_FALSE(l1.Get(8, &v, &ts));

  EXPECT_TRUE(l1.Invalidate(7));
  EXPECT_FALSE(l1.Invalidate(7));  // already gone
  EXPECT_FALSE(l1.Get(7, &v, &ts));

  EXPECT_EQ(l1.stats().hits, 1u);
  EXPECT_EQ(l1.stats().misses, 2u);
  EXPECT_EQ(l1.stats().fills, 1u);
  EXPECT_EQ(l1.stats().invalidations, 1u);
  EXPECT_EQ(l1.stats().evictions, 0u);
}

TEST(L1TailCache, RefillRefreshesInPlace) {
  L1TailCache l1(2, L1Policy::kLru, 8);
  l1.Fill(1, "old", Timestamp{1, 0});
  l1.Fill(1, "new", Timestamp{2, 0});
  EXPECT_EQ(l1.size(), 1u);
  EXPECT_EQ(l1.stats().fills, 2u);
  Value v;
  Timestamp ts;
  ASSERT_TRUE(l1.Get(1, &v, &ts));
  EXPECT_EQ(v, "new");
  EXPECT_EQ(ts, (Timestamp{2, 0}));
}

std::vector<Key> SortedKeys(const L1TailCache& l1) {
  std::vector<Key> keys = l1.Keys();
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(L1TailCache, CapacityEvictionFollowsLruOrder) {
  L1TailCache l1(2, L1Policy::kLru, 8);
  l1.Fill(1, "a", Timestamp{1, 0});
  l1.Fill(2, "b", Timestamp{1, 0});
  Value v;
  Timestamp ts;
  ASSERT_TRUE(l1.Get(1, &v, &ts));       // 1 becomes MRU
  l1.Fill(3, "c", Timestamp{1, 0});      // full: evicts 2, the LRU
  EXPECT_TRUE(l1.Contains(1));
  EXPECT_FALSE(l1.Contains(2));
  EXPECT_TRUE(l1.Contains(3));
  EXPECT_EQ(l1.stats().evictions, 1u);
  EXPECT_EQ(l1.size(), 2u);

  // A scripted sequence of every operation that touches recency, over
  // capacity 4.  The expected resident sets are pinned from the LruPolicy
  // the L1 used to plug in.
  enum class Step { kFill, kGet, kInvalidate };
  struct Case {
    Step step;
    Key key;
    std::vector<Key> residents;  // sorted, after the step
  };
  const std::vector<Case> script = {
      {Step::kFill, 1, {1}},
      {Step::kFill, 2, {1, 2}},
      {Step::kFill, 3, {1, 2, 3}},
      {Step::kFill, 4, {1, 2, 3, 4}},
      {Step::kFill, 1, {1, 2, 3, 4}},        // refresh: 1 becomes MRU
      {Step::kFill, 5, {1, 3, 4, 5}},        // evicts 2
      {Step::kGet, 3, {1, 3, 4, 5}},         // hit: 3 becomes MRU
      {Step::kGet, 9, {1, 3, 4, 5}},         // miss: no effect
      {Step::kFill, 6, {1, 3, 5, 6}},        // evicts 4
      {Step::kInvalidate, 5, {1, 3, 6}},
      {Step::kFill, 7, {1, 3, 6, 7}},        // takes the freed slot
      {Step::kFill, 8, {3, 6, 7, 8}},        // evicts 1
      {Step::kGet, 6, {3, 6, 7, 8}},
      {Step::kFill, 2, {2, 6, 7, 8}},        // evicts 3
      {Step::kInvalidate, 4, {2, 6, 7, 8}},  // not resident
      {Step::kFill, 4, {2, 4, 6, 8}},        // evicts 7
  };
  L1TailCache script_l1(4, L1Policy::kLru, 8);
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Case& c = script[i];
    switch (c.step) {
      case Step::kFill:
        script_l1.Fill(c.key, std::to_string(c.key),
                       Timestamp{static_cast<std::uint32_t>(i), 0});
        break;
      case Step::kGet:
        script_l1.Get(c.key, &v, &ts);
        break;
      case Step::kInvalidate:
        script_l1.Invalidate(c.key);
        break;
    }
    EXPECT_EQ(SortedKeys(script_l1), c.residents) << "after step " << i;
  }
  EXPECT_EQ(script_l1.stats().evictions, 5u);
  EXPECT_EQ(script_l1.stats().invalidations, 1u);
}

TEST(L1TailCache, KeysAndPeekTimestamp) {
  L1TailCache l1(4, L1Policy::kLru, 8);
  l1.Fill(10, "x", Timestamp{5, 2});
  l1.Fill(11, "y", Timestamp{6, 3});
  const std::vector<Key> keys = l1.Keys();
  const std::unordered_set<Key> set(keys.begin(), keys.end());
  EXPECT_EQ(set, (std::unordered_set<Key>{10, 11}));

  Timestamp ts;
  ASSERT_TRUE(l1.PeekTimestamp(10, &ts));
  EXPECT_EQ(ts, (Timestamp{5, 2}));
  EXPECT_FALSE(l1.PeekTimestamp(12, &ts));
  // Peeks leave stats (and recency) alone.
  EXPECT_EQ(l1.stats().hits, 0u);
  EXPECT_EQ(l1.stats().misses, 0u);
}

TEST(L1TailCache, SurvivesChurn) {
  // Deletion uses backward-shift open addressing; hammer insert/erase cycles
  // well past capacity to exercise wrap-around and slot recycling.
  L1TailCache l1(8, L1Policy::kLru, 8);
  for (Key k = 0; k < 512; ++k) {
    l1.Fill(k, std::to_string(k), Timestamp{static_cast<std::uint32_t>(k), 0});
    if (k % 3 == 0) {
      l1.Invalidate(k / 2);
    }
    Value v;
    Timestamp ts;
    if (l1.Get(k, &v, &ts)) {
      EXPECT_EQ(v, std::to_string(k));
    }
    ASSERT_LE(l1.size(), 8u);
  }
  // The survivors, pinned from the LruPolicy the L1 used to plug in.
  EXPECT_EQ(SortedKeys(l1), (std::vector<Key>{504, 505, 506, 507, 508, 509, 510, 511}));
  // Every surviving resident still round-trips.
  for (const Key k : l1.Keys()) {
    Value v;
    Timestamp ts;
    ASSERT_TRUE(l1.Get(k, &v, &ts));
    EXPECT_EQ(v, std::to_string(k));
  }
}

// ---------------------------------------------------------------------------
// FlatSpaceSaving
// ---------------------------------------------------------------------------

TEST(FlatSpaceSaving, CountsAndRanksHeavyHitters) {
  FlatSpaceSaving sketch(4);
  for (int i = 0; i < 10; ++i) sketch.Offer(1);
  for (int i = 0; i < 6; ++i) sketch.Offer(2);
  sketch.Offer(3);
  EXPECT_EQ(sketch.EstimateOf(1), 10u);
  EXPECT_EQ(sketch.EstimateOf(2), 6u);
  EXPECT_EQ(sketch.EstimateOf(3), 1u);
  EXPECT_EQ(sketch.EstimateOf(99), 0u);

  const auto top = sketch.TopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 1u);
  EXPECT_EQ(top[1].key, 2u);
}

TEST(FlatSpaceSaving, ReplacementInheritsMinimumCount) {
  FlatSpaceSaving sketch(2);
  for (int i = 0; i < 5; ++i) sketch.Offer(1);
  for (int i = 0; i < 3; ++i) sketch.Offer(2);
  // Full: a newcomer evicts the minimum (key 2, count 3) and inherits
  // count+1 with error = evicted count — the classic Space-Saving rule.
  const std::uint64_t est = sketch.Offer(7);
  EXPECT_EQ(est, 4u);
  EXPECT_EQ(sketch.EstimateOf(7), 4u);
  EXPECT_EQ(sketch.EstimateOf(2), 0u);  // evicted
  EXPECT_EQ(sketch.size(), 2u);
}

TEST(FlatSpaceSaving, DecayHalvesEstimates) {
  FlatSpaceSaving sketch(4);
  for (int i = 0; i < 8; ++i) sketch.Offer(1);
  for (int i = 0; i < 3; ++i) sketch.Offer(2);
  sketch.DecayHalve();
  EXPECT_EQ(sketch.EstimateOf(1), 4u);
  EXPECT_EQ(sketch.EstimateOf(2), 1u);
  // Order is preserved (halving is monotone): key 1 still ranks first.
  const auto top = sketch.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key, 1u);
}

TEST(FlatSpaceSaving, ChurnKeepsIndexConsistent) {
  FlatSpaceSaving sketch(16);
  for (Key k = 0; k < 4096; ++k) {
    sketch.Offer(k % 61);  // more distinct keys than capacity
    if (k % 97 == 0) {
      sketch.DecayHalve();
    }
  }
  ASSERT_EQ(sketch.size(), 16u);
  // Every tracked entry is findable through the index at its run's count.
  for (const auto& e : sketch.TopK(16)) {
    EXPECT_EQ(sketch.EstimateOf(e.key), e.count);
  }
}

// ---------------------------------------------------------------------------
// Partition::PeekTimestamp (the Lin hit-validation hook)
// ---------------------------------------------------------------------------

TEST(PartitionPeek, MatchesPutAndTracksResidency) {
  PartitionConfig pc;
  pc.buckets = 64;
  pc.node_id = 3;
  pc.synthesize = [](Key key) { return SynthesizeValue(key, 8); };
  Partition part(pc);

  const Timestamp wrote = part.Put(42, "hello");
  Timestamp ts;
  bool resident = true;
  ASSERT_TRUE(part.PeekTimestamp(42, &ts, &resident));
  EXPECT_EQ(ts, wrote);
  EXPECT_FALSE(resident);

  // A never-written key under a synthesizer peeks as the zero timestamp —
  // the same answer a full Get would return.
  ASSERT_TRUE(part.PeekTimestamp(7, &ts, &resident));
  EXPECT_EQ(ts, (Timestamp{0, 0}));

  // Residency is visible through the peek, so a Lin validation cannot trust
  // a shard copy the hot set owns.
  part.MarkCacheResident(42);
  ASSERT_TRUE(part.PeekTimestamp(42, &ts, &resident));
  EXPECT_TRUE(resident);
  part.ClearCacheResident(42);
  ASSERT_TRUE(part.PeekTimestamp(42, &ts, &resident));
  EXPECT_FALSE(resident);
}

}  // namespace
}  // namespace cckvs
