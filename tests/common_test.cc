// Unit tests for src/common: Zipf math, RNG, scrambler, histogram, cycle
// conversion, hashing, timestamps and CHECK macros.

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <cstdint>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "src/common/check.h"
#include "src/common/cycles.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/zipf.h"
#include "src/store/partitioner.h"

namespace cckvs {
namespace {

// ---------------------------------------------------------------------------
// GeneralizedHarmonic
// ---------------------------------------------------------------------------

double NaiveHarmonic(std::uint64_t n, double alpha) {
  double s = 0;
  for (std::uint64_t r = n; r >= 1; --r) {
    s += std::pow(static_cast<double>(r), -alpha);
  }
  return s;
}

TEST(GeneralizedHarmonic, MatchesNaiveSmall) {
  for (double alpha : {0.0, 0.5, 0.9, 0.99, 1.0, 1.01, 1.5, 2.0}) {
    for (std::uint64_t n : {1ull, 2ull, 10ull, 1000ull, 100000ull}) {
      EXPECT_NEAR(GeneralizedHarmonic(n, alpha), NaiveHarmonic(n, alpha),
                  1e-9 * NaiveHarmonic(n, alpha))
          << "n=" << n << " alpha=" << alpha;
    }
  }
}

TEST(GeneralizedHarmonic, EulerMaclaurinMatchesNaiveLarge) {
  // 5M crosses the exact-summation threshold (2^20), exercising the E-M tail.
  const std::uint64_t n = 5'000'000;
  for (double alpha : {0.9, 0.99, 1.0, 1.01}) {
    const double exact = NaiveHarmonic(n, alpha);
    EXPECT_NEAR(GeneralizedHarmonic(n, alpha), exact, 1e-9 * exact)
        << "alpha=" << alpha;
  }
}

TEST(GeneralizedHarmonic, MonotoneInN) {
  EXPECT_LT(GeneralizedHarmonic(10, 0.99), GeneralizedHarmonic(11, 0.99));
  EXPECT_LT(GeneralizedHarmonic(1u << 21, 0.99), GeneralizedHarmonic((1u << 21) + 1000, 0.99));
}

TEST(GeneralizedHarmonic, AlphaZeroIsN) {
  EXPECT_DOUBLE_EQ(GeneralizedHarmonic(12345, 0.0), 12345.0);
}

// ---------------------------------------------------------------------------
// ZipfCdf: the Figure 3 hit-rate claims
// ---------------------------------------------------------------------------

TEST(ZipfCdf, PaperFigure3HitRates) {
  // §7.1: with a cache of 0.1% of a 250M-key dataset the paper quotes expected
  // hit ratios of 46%, 65%, 69% for alpha = 0.9, 0.99, 1.01 (read off Figure 3).
  // The analytically exact values for those parameters are 42.2%, 63.0%, 67.5%;
  // we assert agreement with the paper within 4 percentage points.
  const std::uint64_t n = 250'000'000;
  const std::uint64_t k = 250'000;  // 0.1%
  EXPECT_NEAR(ZipfCdf(k, n, 0.90), 0.46, 0.04);
  EXPECT_NEAR(ZipfCdf(k, n, 0.99), 0.65, 0.04);
  EXPECT_NEAR(ZipfCdf(k, n, 1.01), 0.69, 0.04);
  // Pin the exact values so regressions in the harmonic math are caught tightly.
  EXPECT_NEAR(ZipfCdf(k, n, 0.90), 0.4224, 0.002);
  EXPECT_NEAR(ZipfCdf(k, n, 0.99), 0.6304, 0.002);
  EXPECT_NEAR(ZipfCdf(k, n, 1.01), 0.6754, 0.002);
}

TEST(ZipfCdf, Extremes) {
  EXPECT_DOUBLE_EQ(ZipfCdf(0, 100, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(ZipfCdf(100, 100, 0.99), 1.0);
  EXPECT_DOUBLE_EQ(ZipfCdf(200, 100, 0.99), 1.0);
}

TEST(ZipfPmf, SumsToOne) {
  const std::uint64_t n = 1000;
  double sum = 0;
  for (std::uint64_t r = 1; r <= n; ++r) {
    sum += ZipfPmf(r, n, 0.99);
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ZipfPmf, HottestKeyShareAt250M) {
  // The rank-1 probability at alpha=0.99/250M keys is ~4.5%; this drives the
  // Figure 1 imbalance (hottest of 128 servers gets ~7x the average load).
  const double p1 = ZipfPmf(1, 250'000'000, 0.99);
  EXPECT_GT(p1, 0.040);
  EXPECT_LT(p1, 0.055);
}

// ---------------------------------------------------------------------------
// ZipfSampler
// ---------------------------------------------------------------------------

TEST(ZipfSampler, RanksInRange) {
  ZipfSampler sampler(1000, 0.99);
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t r = sampler.Sample(rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 1000u);
  }
}

TEST(ZipfSampler, EmpiricalMatchesPmf) {
  const std::uint64_t n = 100;
  ZipfSampler sampler(n, 0.99);
  Rng rng(42);
  const int draws = 400000;
  std::vector<int> counts(n + 1, 0);
  for (int i = 0; i < draws; ++i) {
    counts[sampler.Sample(rng)]++;
  }
  for (std::uint64_t r : {1ull, 2ull, 5ull, 10ull, 50ull}) {
    const double expected = ZipfPmf(r, n, 0.99);
    const double got = static_cast<double>(counts[r]) / draws;
    EXPECT_NEAR(got, expected, 0.15 * expected + 0.001) << "rank " << r;
  }
}

TEST(ZipfSampler, EmpiricalCdfTopK) {
  // Empirical hit rate of the top 1% must track ZipfCdf.
  const std::uint64_t n = 100000;
  ZipfSampler sampler(n, 0.99);
  Rng rng(7);
  const int draws = 300000;
  int hits = 0;
  const std::uint64_t k = n / 100;
  for (int i = 0; i < draws; ++i) {
    if (sampler.Sample(rng) <= k) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / draws, ZipfCdf(k, n, 0.99), 0.01);
}

TEST(ZipfSampler, AlphaZeroUniform) {
  const std::uint64_t n = 10;
  ZipfSampler sampler(n, 0.0);
  Rng rng(3);
  std::vector<int> counts(n + 1, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    counts[sampler.Sample(rng)]++;
  }
  for (std::uint64_t r = 1; r <= n; ++r) {
    EXPECT_NEAR(counts[r] * 10.0 / draws, 1.0, 0.05);
  }
}

TEST(ZipfSampler, DeterministicAcrossRuns) {
  ZipfSampler sampler(1 << 20, 0.99);
  Rng rng1(99), rng2(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(sampler.Sample(rng1), sampler.Sample(rng2));
  }
}

TEST(ZipfSampler, HugeDomain) {
  // 250M keys as in the paper; draws must stay in range and skew to low ranks.
  const std::uint64_t n = 250'000'000;
  ZipfSampler sampler(n, 0.99);
  Rng rng(5);
  int top_million = 0;
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t r = sampler.Sample(rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, n);
    if (r <= 1'000'000) {
      ++top_million;
    }
  }
  const double expected = ZipfCdf(1'000'000, n, 0.99);
  EXPECT_NEAR(static_cast<double>(top_million) / draws, expected, 0.02);
}

// The draw-by-draw reference: rejection-inversion alone, one RNG word per
// attempt, exactly as ZipfSampler drew before it had a hot table.
std::uint64_t InversionSample(const ZipfSampler& sampler, Rng& rng) {
  while (true) {
    bool accept = false;
    const std::uint64_t k = sampler.Invert(rng.Next() >> 11, &accept);
    if (accept) {
      return k;
    }
  }
}

class ZipfTable : public testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

// The hot table must be the inversion, draw for draw: every draw within 256
// of a piece boundary gets the inversion's answer (so no boundary is off by
// a rounding step), and 20M random draws give the inversion's ranks from the
// same RNG words.
TEST_P(ZipfTable, TableDrawsMatchInversion) {
  const auto [n, alpha] = GetParam();
  const ZipfSampler sampler(n, alpha);
  const ZipfSampler::HotTable* table = sampler.hot_table();
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->ranks(), std::min<std::uint64_t>(2048, n));
  EXPECT_LE(table->bytes(), 128u * 1024);

  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  for (std::size_t j = 0; j <= table->pieces(); ++j) {
    const std::uint64_t b = table->piece_start(j);
    const std::uint64_t lo = b < 256 ? 0 : b - 256;
    const std::uint64_t hi = std::min(b + 256, ZipfSampler::HotTable::kDrawEnd);
    for (std::uint64_t m = lo; m < hi; ++m) {
      bool accept = false;
      const std::uint64_t k = sampler.Invert(m, &accept);
      ++checked;
      if (m >= table->m_hot()) {
        mismatches += table->Lookup(m) != (accept ? k : 0) ? 1 : 0;
      } else {
        mismatches += k <= table->ranks() ? 1 : 0;  // below m_hot: a cold rank
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checked << " boundary draws";

  constexpr int kDraws = 20'000'000;
  Rng with_table(n ^ 0x7ab1e);
  Rng reference(n ^ 0x7ab1e);
  std::uint64_t draw_mismatches = 0;
  std::uint64_t hot_mismatches = 0;
  for (int i = 0; i < kDraws; ++i) {
    bool hot = false;
    const std::uint64_t got = sampler.Sample(with_table, &hot);
    draw_mismatches += got != InversionSample(sampler, reference) ? 1 : 0;
    hot_mismatches += hot != (got <= table->ranks()) ? 1 : 0;
  }
  EXPECT_EQ(draw_mismatches, 0u);
  EXPECT_EQ(hot_mismatches, 0u);
  EXPECT_EQ(with_table.Next(), reference.Next());  // same words consumed
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZipfTable,
    testing::Combine(testing::Values<std::uint64_t>(5'000, 100'000, 1'000'000,
                                                    250'000'000),
                     testing::Values(0.6, 0.99, 1.0, 1.2)));

TEST(ZipfSampler, CopiesShareOneHotTable) {
  const ZipfSampler sampler(1'000'000, 0.99);
  const ZipfSampler copy = sampler;
  EXPECT_EQ(copy.hot_table(), sampler.hot_table());
  EXPECT_EQ(ZipfSampler(1000, 0.0).hot_table(), nullptr);  // uniform: no table
}

// ---------------------------------------------------------------------------
// KeyScrambler
// ---------------------------------------------------------------------------

TEST(KeyScrambler, BijectiveSmallDomain) {
  for (std::uint64_t n : {1ull, 2ull, 3ull, 17ull, 256ull, 1000ull}) {
    KeyScrambler scrambler(n, 0xabcdef);
    std::unordered_set<std::uint64_t> seen;
    for (std::uint64_t r = 0; r < n; ++r) {
      const std::uint64_t k = scrambler.RankToKey(r);
      ASSERT_LT(k, n);
      ASSERT_TRUE(seen.insert(k).second) << "collision in domain " << n;
    }
  }
}

TEST(KeyScrambler, SeedChangesPermutation) {
  KeyScrambler a(1000, 1), b(1000, 2);
  int diffs = 0;
  for (std::uint64_t r = 0; r < 1000; ++r) {
    if (a.RankToKey(r) != b.RankToKey(r)) {
      ++diffs;
    }
  }
  EXPECT_GT(diffs, 900);
}

TEST(KeyScrambler, StableForFixedSeed) {
  KeyScrambler a(1 << 16, 77), b(1 << 16, 77);
  for (std::uint64_t r = 0; r < 1024; ++r) {
    EXPECT_EQ(a.RankToKey(r), b.RankToKey(r));
  }
}

TEST(KeyScrambler, SpreadsHotRanks) {
  // The 10 hottest ranks should land in well-separated key ids, not clustered.
  const std::uint64_t n = 1 << 20;
  KeyScrambler scrambler(n, 123);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t r = 0; r < 10; ++r) {
    keys.push_back(scrambler.RankToKey(r));
  }
  // All distinct and not all in the same 1/16th of the domain.
  std::unordered_set<std::uint64_t> buckets;
  for (std::uint64_t k : keys) {
    buckets.insert(k / (n / 16));
  }
  EXPECT_GE(buckets.size(), 4u);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, BoundedStaysInBound) {
  Rng rng(11);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, DeterministicSeeding) {
  Rng a(42), b(42), c(43);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, ForkIndependentStream) {
  Rng parent(9);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent.Next() == child.Next()) {
      ++equal;
    }
  }
  EXPECT_LE(equal, 2);
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Rng rng(123);
  std::vector<int> counts(8, 0);
  const int draws = 80000;
  for (int i = 0; i < draws; ++i) {
    counts[rng.NextBounded(8)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, draws / 8, draws / 8 / 10);
  }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, BasicStats) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
}

TEST(Histogram, QuantilesExactForSmallValues) {
  // Values below 64 are exact buckets.
  Histogram h;
  for (std::uint64_t v = 0; v < 60; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.P50(), 29u);
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(1.0), 59u);
}

TEST(Histogram, QuantileWithinRelativeError) {
  Histogram h;
  Rng rng(4);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t v = 100 + rng.NextBounded(1000000);
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  const std::uint64_t exact_p95 = values[static_cast<std::size_t>(0.95 * (values.size() - 1))];
  const std::uint64_t approx = h.P95();
  EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact_p95),
              0.03 * static_cast<double>(exact_p95));
}

TEST(Histogram, MergeAddsUp) {
  Histogram a, b;
  a.Record(10);
  a.Record(20);
  b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000000u);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, HandlesHugeValues) {
  Histogram h;
  h.Record(~0ull);
  h.Record(1ull << 62);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), ~0ull);
  EXPECT_GE(h.Quantile(1.0), 1ull << 62);
}

// ---------------------------------------------------------------------------
// Cycle conversion
// ---------------------------------------------------------------------------

// The live node converts each op's cycle delta with one fixed-point multiply;
// it must agree with the double conversion to the nanosecond over every
// delta up to 2^40 cycles (minutes at any clock rate in use).
TEST(Cycles, FixedPointMatchesCyclesToNsUpTo2Pow40) {
  const std::uint64_t q48 = NsPerCycleQ48();
  std::vector<std::uint64_t> deltas;
  for (int bit = 0; bit <= 40; ++bit) {
    deltas.push_back(1ull << bit);
    deltas.push_back((1ull << bit) - 1);
    deltas.push_back((1ull << bit) + 1);
  }
  Rng rng(29);
  for (int i = 0; i < 200'000; ++i) {
    // Log-uniform, so every magnitude is covered, not just the largest.
    const int bits = 1 + static_cast<int>(rng.NextBounded(40));
    deltas.push_back(rng.NextBounded(1ull << bits));
  }
  for (const std::uint64_t d : deltas) {
    const std::uint64_t exact = CyclesToNs(d);
    const std::uint64_t fixed = CyclesToNsQ48(d, q48);
    ASSERT_LE(exact > fixed ? exact - fixed : fixed - exact, 1u) << "delta " << d;
  }
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

TEST(Hash, Mix64IsBijectiveOnSamples) {
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    ASSERT_TRUE(seen.insert(Mix64(i)).second);
  }
}

TEST(Hash, Fnv1aDiffersByContent) {
  EXPECT_NE(Fnv1a("node-1#0"), Fnv1a("node-1#1"));
  EXPECT_NE(Fnv1a("a"), Fnv1a("b"));
  EXPECT_EQ(Fnv1a("same"), Fnv1a("same"));
}

TEST(Hash, KeyHashSpreadsLowBits) {
  // Sequential keys must not map to sequential shards.
  int same_as_prev = 0;
  for (std::uint64_t k = 1; k < 1000; ++k) {
    if (HashKey(k) % 9 == HashKey(k - 1) % 9) {
      ++same_as_prev;
    }
  }
  EXPECT_LT(same_as_prev, 250);
}

// Whether index(HashKey(key), 1023) taken mod 2^k, for every k in 2..10, hits
// each residue within 10% of uniform over the keys ModuloPartitioner(nodes)
// homes on node 0: the keys one per-home table (a shard, a ranked node's L1 or
// admission sketch) holds.
bool SpreadsOneHomeEvenly(int nodes, std::size_t (*index)(std::uint64_t, std::size_t)) {
  constexpr int kMaxBits = 10;
  constexpr std::uint64_t kHomed = std::uint64_t{1} << 22;  // 4096 per residue at k = 10
  const ModuloPartitioner homes(nodes);
  std::vector<std::uint64_t> counts(std::size_t{1} << kMaxBits, 0);
  for (Key key = 0, homed = 0; homed < kHomed; ++key) {
    if (homes.HomeOf(key) == 0) {
      ++counts[index(HashKey(key), counts.size() - 1)];
      ++homed;
    }
  }
  for (int k = kMaxBits; k >= 2; --k) {
    const std::size_t residues = std::size_t{1} << k;
    const double expected = static_cast<double>(kHomed) / static_cast<double>(residues);
    for (std::size_t r = 0; r < residues; ++r) {
      if (std::abs(static_cast<double>(counts[r]) - expected) > 0.1 * expected) {
        return false;
      }
    }
    // Fold to k - 1 bits: residue r mod 2^(k-1) collects r and r + 2^(k-1).
    for (std::size_t r = 0; r < residues / 2; ++r) {
      counts[r] += counts[r + residues / 2];
    }
  }
  return true;
}

TEST(Hash, IndexBitsSpreadOneHomesKeysOverTheWholeTable) {
  for (int nodes : {2, 4, 8}) {
    EXPECT_TRUE(SpreadsOneHomeEvenly(nodes, HashIndex)) << nodes << " nodes";
  }
  // The routed low bits do not: on a 4-node rack node 0's keys all have
  // hash % 4 == 0, so a raw hash & mask index leaves 3/4 of the table empty.
  const auto low_bits = [](std::uint64_t hash, std::size_t mask) -> std::size_t {
    return static_cast<std::size_t>(hash) & mask;
  };
  EXPECT_FALSE(SpreadsOneHomeEvenly(4, low_bits));
}

// ---------------------------------------------------------------------------
// Timestamp
// ---------------------------------------------------------------------------

TEST(Timestamp, TotalOrder) {
  const Timestamp a{1, 0}, b{1, 1}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(a, (Timestamp{1, 0}));
  EXPECT_NE(a, b);
}

TEST(Timestamp, ClockDominatesWriter) {
  const Timestamp low_clock_high_writer{1, 200}, high_clock_low_writer{2, 0};
  EXPECT_LT(low_clock_high_writer, high_clock_low_writer);
}

// ---------------------------------------------------------------------------
// CHECK macros
// ---------------------------------------------------------------------------

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH(CCKVS_CHECK(1 == 2), "CHECK failed");
}

TEST(CheckDeathTest, CheckEqPrintsOperands) {
  EXPECT_DEATH(CCKVS_CHECK_EQ(3, 4), "lhs=3, rhs=4");
}

TEST(Check, PassingChecksAreSilent) {
  CCKVS_CHECK(true);
  CCKVS_CHECK_EQ(1, 1);
  CCKVS_CHECK_LT(1, 2);
  CCKVS_CHECK_GE(2, 2);
}

}  // namespace
}  // namespace cckvs
