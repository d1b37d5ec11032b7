// Zipfian popularity modelling (§2.1 of the paper).
//
// Item popularity follows a power law: the item of rank r is requested with
// probability proportional to r^-alpha.  The paper uses alpha in {0.90, 0.99, 1.01}
// over a 250 M-key dataset.  This module provides:
//
//  * GeneralizedHarmonic  -- H(n, alpha) = sum_{r=1..n} r^-alpha, exact for small n
//    and Euler-Maclaurin-accelerated for huge n (needed for 250 M keys).
//  * ZipfCdf              -- probability mass of the top-k ranks; this is exactly the
//    expected hit rate of a cache holding the k hottest keys (Figure 3).
//  * ZipfSampler          -- O(1) rejection-inversion sampling (Hormann & Derflinger),
//    valid for any alpha > 0 and n up to 2^62.  Draws that land on the 2048
//    hottest ranks are answered from a table built once per (n, alpha) and
//    shared by every copy of the sampler; it returns exactly what the
//    inversion would, from the same RNG words (HotTable below).
//  * KeyScrambler         -- a seeded Feistel bijection [0,n) -> [0,n) that maps
//    popularity ranks to key ids, so hot keys land on pseudo-random shards.

#ifndef CCKVS_COMMON_ZIPF_H_
#define CCKVS_COMMON_ZIPF_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"

namespace cckvs {

// Returns H(n, alpha) = sum_{r=1}^{n} r^-alpha.
//
// Exact summation for n <= 2^20; for larger n the head is summed exactly and the
// tail is approximated with a fourth-order Euler-Maclaurin expansion (relative
// error < 1e-12 for alpha in [0, 4]).
double GeneralizedHarmonic(std::uint64_t n, double alpha);

// P[rank <= k] for a Zipf(alpha) distribution over n ranks.  Equals the expected
// hit rate of a perfect cache of the k hottest items.
double ZipfCdf(std::uint64_t k, std::uint64_t n, double alpha);

// Probability of an individual rank (1-based).
double ZipfPmf(std::uint64_t rank, std::uint64_t n, double alpha);

// Draws ranks in [1, n] with P[r] proportional to r^-alpha.
//
// alpha == 0 degenerates to the uniform distribution.  The sampler owns no RNG;
// the caller passes one in so deterministic replay stays in the caller's control.
//
// Copies share one immutable HotTable, so a rack builds it once and hands a
// copy of the sampler to each of its generators.
class ZipfSampler {
 public:
  // The inversion's outcome for the hottest ranks, as a step function of the
  // draw.  A draw is the 53-bit integer m = rng.Next() >> 11 (what
  // Rng::NextDouble scales).  As m grows the inversion's u falls and so does
  // its rank, and rank k owns two consecutive runs ("pieces") of m: an accept
  // piece, where u >= T_k = H(k + 1/2) - k^-alpha, then a reject piece, where
  // the inversion draws again.  The table holds every piece of ranks
  // 1..ranks() — their first m, found by galloping and bisection with
  // Invert as the oracle — so for m >= m_hot() the lookup is the inversion's
  // own answer.  A guide array over [m_hot, 2^53) names each cell's first
  // piece, so a lookup scans at most a few pieces.
  class HotTable {
   public:
    static constexpr std::uint64_t kMaxRanks = 2048;
    static constexpr int kGuideBits = 14;
    static constexpr std::uint64_t kDrawEnd = std::uint64_t{1} << 53;

    // First draw the table answers; every smaller draw gives a rank above
    // ranks().
    std::uint64_t m_hot() const { return m_hot_; }
    std::uint64_t ranks() const { return ranks_; }

    // For m in [m_hot(), 2^53): the rank the inversion accepts at m, or 0
    // where it rejects (and draws again).
    std::uint64_t Lookup(std::uint64_t m) const {
      std::size_t j = guide_[(m - m_hot_) >> shift_];
      while (m >= start_[j + 1]) {
        ++j;
      }
      return rank_[j];
    }

    // Pieces in draw order: piece j is [piece_start(j), piece_start(j + 1)),
    // and piece_start(pieces()) == 2^53.
    std::size_t pieces() const { return rank_.size(); }
    std::uint64_t piece_start(std::size_t j) const { return start_[j]; }
    std::size_t bytes() const {
      return start_.size() * sizeof(start_[0]) + rank_.size() * sizeof(rank_[0]) +
             guide_.size() * sizeof(guide_[0]);
    }

   private:
    friend class ZipfSampler;

    std::uint64_t m_hot_ = kDrawEnd;
    std::uint64_t ranks_ = 0;
    int shift_ = 0;                     // guide cell of m: (m - m_hot_) >> shift_
    std::vector<std::uint64_t> start_;  // pieces() + 1 entries
    std::vector<std::uint16_t> rank_;
    std::vector<std::uint16_t> guide_;  // cell -> first piece it overlaps
  };

  ZipfSampler(std::uint64_t n, double alpha);

  // Returns a rank in [1, n].
  std::uint64_t Sample(Rng& rng) const {
    bool hot = false;
    return Sample(rng, &hot);
  }

  // Same draw; *hot is true when the rank came from the hot table, i.e. is
  // one of the table's ranks() hottest.
  std::uint64_t Sample(Rng& rng, bool* hot) const {
    if (alpha_ == 0.0) {
      *hot = false;
      return 1 + rng.NextBounded(n_);
    }
    const HotTable& table = *table_;
    while (true) {
      const std::uint64_t m = rng.Next() >> 11;
      if (m >= table.m_hot()) {
        if (const std::uint64_t k = table.Lookup(m); k != 0) {
          *hot = true;
          return k;
        }
      } else {
        bool accept = false;
        const std::uint64_t k = Invert(m, &accept);
        if (accept) {
          *hot = false;
          return k;
        }
      }
    }
  }

  // One rejection-inversion step on the draw m (see HotTable): the candidate
  // rank, and in *accept whether the sampler returns it or draws again.
  std::uint64_t Invert(std::uint64_t m, bool* accept) const;

  // The hot table, or nullptr when alpha == 0.
  const HotTable* hot_table() const { return table_.get(); }

  std::uint64_t n() const { return n_; }
  double alpha() const { return alpha_; }

 private:
  double HIntegral(double x) const;
  double HIntegralInverse(double x) const;
  static double Pow(double x, double y);
  std::shared_ptr<const HotTable> BuildHotTable() const;

  std::uint64_t n_;
  double alpha_;
  // Precomputed constants of the rejection-inversion scheme.
  double h_integral_x1_ = 0.0;
  double h_integral_n_ = 0.0;
  double s_ = 0.0;
  std::shared_ptr<const HotTable> table_;
};

// Seeded bijection on [0, n): maps popularity rank to key id.
//
// Implemented as a 4-round Feistel network over the smallest even-width binary
// domain covering n, with cycle-walking to stay inside [0, n).  Being a true
// bijection matters: every rank maps to a distinct key, so partition load in
// Figure 1 reflects the hash-sharding of the paper rather than collision noise.
class KeyScrambler {
 public:
  KeyScrambler(std::uint64_t n, std::uint64_t seed);

  // rank is 0-based here; callers adapt from the sampler's 1-based ranks.
  std::uint64_t RankToKey(std::uint64_t rank) const;

  std::uint64_t n() const { return n_; }

 private:
  std::uint64_t FeistelOnce(std::uint64_t x) const;

  std::uint64_t n_;
  int half_bits_;
  std::uint64_t half_mask_;
  std::uint64_t round_keys_[4];
};

}  // namespace cckvs

#endif  // CCKVS_COMMON_ZIPF_H_
