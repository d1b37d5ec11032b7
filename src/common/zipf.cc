#include "src/common/zipf.h"

#include <algorithm>
#include <bit>
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
    table_ = BuildHotTable();
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

std::uint64_t ZipfSampler::Invert(std::uint64_t m, bool* accept) const {
  // Rejection-inversion (Hormann & Derflinger 1996), as popularized by the
  // Apache Commons RejectionInversionZipfSampler.  u is what
  // h_n + rng.NextDouble() * (h_1 - h_n) gives for the draw m.
  const double u = h_integral_n_ +
                   static_cast<double>(m) * 0x1.0p-53 * (h_integral_x1_ - h_integral_n_);
  const double x = HIntegralInverse(u);
  auto k = static_cast<std::uint64_t>(x + 0.5);
  if (k < 1) {
    k = 1;
  } else if (k > n_) {
    k = n_;
  }
  const auto kd = static_cast<double>(k);
  *accept = kd - x <= s_ || u >= HIntegral(kd + 0.5) - Pow(kd, -alpha_);
  return k;
}

std::shared_ptr<const ZipfSampler::HotTable> ZipfSampler::BuildHotTable() const {
  constexpr std::uint64_t kEnd = HotTable::kDrawEnd;
  auto table = std::make_shared<HotTable>();
  const std::uint64_t ranks = std::min(HotTable::kMaxRanks, n_);
  table->ranks_ = ranks;

  // Piece codes fall as the draw grows: rank k's accept piece is 2k, its
  // reject piece 2k - 1.  first[c] is the first draw whose code is <= c
  // (kEnd when there is none), so code c's piece is [first[c], first[c - 1]).
  const auto code = [this](std::uint64_t m) {
    bool accept = false;
    const std::uint64_t k = Invert(m, &accept);
    return 2 * k - (accept ? 0 : 1);
  };
  // Where u(m) crosses `u`, from the draw's linear map; the search below
  // needs it only as a starting point.
  const double per_u = 0x1.0p53 / (h_integral_x1_ - h_integral_n_);
  const auto estimate = [&](double u) {
    const double m = (u - h_integral_n_) * per_u;
    return m <= 0.0 ? std::uint64_t{0}
                    : m >= 0x1.0p53 ? kEnd : static_cast<std::uint64_t>(m);
  };
  std::vector<std::uint64_t> first(2 * ranks + 1);
  first[0] = kEnd;
  std::uint64_t lo = 0;  // first[c + 1]: first[c] cannot lie below it
  for (std::uint64_t c = 2 * ranks; c >= 1; --c) {
    const auto kd = static_cast<double>((c + 1) / 2);
    const double top = HIntegral(kd + 0.5);
    const std::uint64_t guess =
        std::clamp(estimate(c % 2 == 0 ? top : top - Pow(kd, -alpha_)), lo, kEnd);
    // Smallest m in [lo, kEnd] with code(m) <= c (kEnd counts as true):
    // gallop from the guess until a false/true pair brackets it, then bisect.
    std::uint64_t below = lo;  // code(m) > c for every m < below
    std::uint64_t at = kEnd;   // code(at) <= c
    if (guess < kEnd) {
      if (code(guess) <= c) {
        at = guess;
        for (std::uint64_t step = 1; at - below >= step; step *= 2) {
          if (code(at - step) > c) {
            below = at - step + 1;
            break;
          }
          at -= step;
        }
      } else {
        below = guess + 1;
        for (std::uint64_t step = 1; below + step <= at; step *= 2) {
          if (code(below + step - 1) <= c) {
            at = below + step - 1;
            break;
          }
          below += step;
        }
      }
    }
    while (below < at) {
      const std::uint64_t mid = below + (at - below) / 2;
      if (code(mid) <= c) {
        at = mid;
      } else {
        below = mid + 1;
      }
    }
    first[c] = lo = at;
  }

  table->m_hot_ = first[2 * ranks];
  for (std::uint64_t c = 2 * ranks; c >= 1; --c) {
    if (first[c] < first[c - 1]) {
      table->start_.push_back(first[c]);
      table->rank_.push_back(static_cast<std::uint16_t>(c % 2 == 0 ? c / 2 : 0));
    }
  }
  table->start_.push_back(kEnd);
  CCKVS_CHECK(!table->rank_.empty());

  // Guide cells of 2^shift draws each, at most 2^kGuideBits of them.
  const std::uint64_t span = kEnd - table->m_hot_;
  table->shift_ = std::max(0, static_cast<int>(std::bit_width(span - 1)) -
                                  HotTable::kGuideBits);
  table->guide_.resize(static_cast<std::size_t>(((span - 1) >> table->shift_) + 1));
  std::size_t j = 0;
  for (std::size_t cell = 0; cell < table->guide_.size(); ++cell) {
    const std::uint64_t cell_start = table->m_hot_ + (std::uint64_t{cell} << table->shift_);
    while (cell_start >= table->start_[j + 1]) {
      ++j;
    }
    table->guide_[cell] = static_cast<std::uint16_t>(j);
  }
  return table;
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
