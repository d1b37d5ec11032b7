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
//    valid for any alpha > 0 and n up to 2^62.
//  * KeyScrambler         -- a seeded Feistel bijection [0,n) -> [0,n) that maps
//    popularity ranks to key ids, so hot keys land on pseudo-random shards.

#ifndef CCKVS_COMMON_ZIPF_H_
#define CCKVS_COMMON_ZIPF_H_

#include <cstdint>

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
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double alpha);

  // Returns a rank in [1, n].
  std::uint64_t Sample(Rng& rng) const;

  std::uint64_t n() const { return n_; }
  double alpha() const { return alpha_; }

 private:
  double HIntegral(double x) const;
  double HIntegralInverse(double x) const;
  static double Pow(double x, double y);

  std::uint64_t n_;
  double alpha_;
  // Precomputed constants of the rejection-inversion scheme.
  double h_integral_x1_ = 0.0;
  double h_integral_n_ = 0.0;
  double s_ = 0.0;
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

  // Mean Feistel passes per RankToKey: the cover domain's size over n, in
  // [1, 4).
  double mean_walk() const;

 private:
  std::uint64_t FeistelOnce(std::uint64_t x) const;

  std::uint64_t n_;
  int half_bits_;
  std::uint64_t half_mask_;
  std::uint64_t round_keys_[4];
};

}  // namespace cckvs

#endif  // CCKVS_COMMON_ZIPF_H_
