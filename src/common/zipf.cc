#include "src/common/zipf.h"

#include <cmath>

#include "src/common/check.h"
#include "src/common/hash.h"

namespace cckvs {
namespace {

// Threshold below which H(n, alpha) is computed by direct summation.
constexpr std::uint64_t kExactSumLimit = 1u << 20;

// Direct sum of r^-alpha for r in [lo, hi], summed from small terms up for
// numerical stability.
double DirectSum(std::uint64_t lo, std::uint64_t hi, double alpha) {
  double sum = 0.0;
  for (std::uint64_t r = hi; r >= lo; --r) {
    sum += std::pow(static_cast<double>(r), -alpha);
    if (r == lo) {
      break;  // avoid wrap when lo == 0 never happens, but r-- at lo==1 would.
    }
  }
  return sum;
}

// Integral of x^-alpha from a to b.
double PowerIntegral(double a, double b, double alpha) {
  if (alpha == 1.0) {
    return std::log(b) - std::log(a);
  }
  return (std::pow(b, 1.0 - alpha) - std::pow(a, 1.0 - alpha)) / (1.0 - alpha);
}

}  // namespace

double GeneralizedHarmonic(std::uint64_t n, double alpha) {
  CCKVS_CHECK_GE(alpha, 0.0);
  if (n == 0) {
    return 0.0;
  }
  if (alpha == 0.0) {
    return static_cast<double>(n);
  }
  if (n <= kExactSumLimit) {
    return DirectSum(1, n, alpha);
  }
  // Head: exact.  Tail [m+1, n]: Euler-Maclaurin around the integral.
  const std::uint64_t m = kExactSumLimit;
  const double head = DirectSum(1, m, alpha);
  const auto a = static_cast<double>(m + 1);
  const auto b = static_cast<double>(n);
  const double fa = std::pow(a, -alpha);
  const double fb = std::pow(b, -alpha);
  // f'(x) = -alpha x^-(alpha+1)
  const double dfa = -alpha * std::pow(a, -alpha - 1.0);
  const double dfb = -alpha * std::pow(b, -alpha - 1.0);
  // f'''(x) = -alpha(alpha+1)(alpha+2) x^-(alpha+3)
  const double d3fa = -alpha * (alpha + 1.0) * (alpha + 2.0) * std::pow(a, -alpha - 3.0);
  const double d3fb = -alpha * (alpha + 1.0) * (alpha + 2.0) * std::pow(b, -alpha - 3.0);
  double tail = PowerIntegral(a, b, alpha);
  tail += 0.5 * (fa + fb);
  tail += (dfb - dfa) / 12.0;
  tail -= (d3fb - d3fa) / 720.0;
  return head + tail;
}

double ZipfCdf(std::uint64_t k, std::uint64_t n, double alpha) {
  CCKVS_CHECK_GE(n, 1u);
  if (k == 0) {
    return 0.0;
  }
  if (k >= n) {
    return 1.0;
  }
  return GeneralizedHarmonic(k, alpha) / GeneralizedHarmonic(n, alpha);
}

double ZipfPmf(std::uint64_t rank, std::uint64_t n, double alpha) {
  CCKVS_CHECK_GE(rank, 1u);
  CCKVS_CHECK_LE(rank, n);
  return std::pow(static_cast<double>(rank), -alpha) / GeneralizedHarmonic(n, alpha);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double alpha) : n_(n), alpha_(alpha) {
  CCKVS_CHECK_GE(n, 1u);
  CCKVS_CHECK_GE(alpha, 0.0);
  if (alpha_ > 0.0) {
    h_integral_x1_ = HIntegral(1.5) - 1.0;
    h_integral_n_ = HIntegral(static_cast<double>(n) + 0.5);
    s_ = 2.0 - HIntegralInverse(HIntegral(2.5) - Pow(2.0, -alpha_));
  }
}

double ZipfSampler::HIntegral(double x) const {
  const double log_x = std::log(x);
  // (x^(1-alpha) - 1) / (1 - alpha), continuous at alpha == 1 where it is log x.
  const double t = log_x * (1.0 - alpha_);
  if (std::abs(t) < 1e-8) {
    // Series expansion near alpha == 1 for numerical stability.
    return log_x * (1.0 + t / 2.0 + t * t / 6.0);
  }
  return std::expm1(t) / (1.0 - alpha_);
}

double ZipfSampler::HIntegralInverse(double x) const {
  double t = x * (1.0 - alpha_);
  if (t < -1.0) {
    t = -1.0;  // guard against rounding below the domain boundary
  }
  if (std::abs(t) < 1e-8) {
    return std::exp(x * (1.0 - t / 2.0 + t * t / 3.0));
  }
  return std::exp(std::log1p(t) / (1.0 - alpha_));
}

double ZipfSampler::Pow(double x, double y) { return std::exp(y * std::log(x)); }

std::uint64_t ZipfSampler::Sample(Rng& rng) const {
  if (alpha_ == 0.0) {
    return 1 + rng.NextBounded(n_);
  }
  // Rejection-inversion (Hormann & Derflinger 1996), as popularized by the
  // Apache Commons RejectionInversionZipfSampler.
  while (true) {
    const double u =
        h_integral_n_ + rng.NextDouble() * (h_integral_x1_ - h_integral_n_);
    const double x = HIntegralInverse(u);
    auto k = static_cast<std::uint64_t>(x + 0.5);
    if (k < 1) {
      k = 1;
    } else if (k > n_) {
      k = n_;
    }
    const auto kd = static_cast<double>(k);
    if (kd - x <= s_ || u >= HIntegral(kd + 0.5) - Pow(kd, -alpha_)) {
      return k;
    }
  }
}

KeyScrambler::KeyScrambler(std::uint64_t n, std::uint64_t seed) : n_(n) {
  CCKVS_CHECK_GE(n, 1u);
  // Smallest even bit-width 2w with 2^(2w) >= n.
  int bits = 2;
  while (bits < 64 && n > (1ull << bits)) {
    bits += 2;
  }
  half_bits_ = bits / 2;
  half_mask_ = (half_bits_ == 64) ? ~0ull : ((1ull << half_bits_) - 1);
  std::uint64_t sm = seed ^ 0xa076'1d64'78bd'642full;
  for (auto& rk : round_keys_) {
    rk = SplitMix64(sm);
  }
}

std::uint64_t KeyScrambler::FeistelOnce(std::uint64_t x) const {
  std::uint64_t left = x >> half_bits_;
  std::uint64_t right = x & half_mask_;
  for (const std::uint64_t rk : round_keys_) {
    const std::uint64_t f = Mix64(right ^ rk) & half_mask_;
    const std::uint64_t new_left = right;
    right = left ^ f;
    left = new_left;
  }
  return (left << half_bits_) | right;
}

double KeyScrambler::mean_walk() const {
  return std::ldexp(1.0, 2 * half_bits_) / static_cast<double>(n_);
}

std::uint64_t KeyScrambler::RankToKey(std::uint64_t rank) const {
  CCKVS_DCHECK_LT(rank, n_);
  // Cycle-walk until the permuted value falls back inside [0, n).  The walk
  // terminates because the Feistel network is a permutation of the cover domain.
  std::uint64_t x = rank;
  do {
    x = FeistelOnce(x);
  } while (x >= n_);
  return x;
}

}  // namespace cckvs
