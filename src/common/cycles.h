// Cycle-accurate timestamps for scheduler-noise-free latency measurement.
//
// clock_gettime costs ~20-30ns per call and two of them bracket every op in
// the live run loop; rdtsc does not serialize, and a tight loop of it on a
// 4-vCPU Xeon guest measured 11.8 ns per call.  That is not cheap next to a
// ~40 ns op: in a read_skew profile the issue stamp's line held 7.7% of node
// samples and the rdtsc line 8.0% (each also collects the stall skid of the
// work before it).  The live latency histogram (Fig 13c comparability) is
// fed from CycleNow() deltas converted once at completion, with one multiply
// (CyclesToNsQ48).
//
// Calibration: CyclesPerNs() measures rdtsc against steady_clock over ~10ms
// on first use (function-local static).  Call it once at thread start —
// before any measured window, and before enabling the allocation tracker —
// so the calibration cost never lands inside a measurement.

#ifndef CCKVS_COMMON_CYCLES_H_
#define CCKVS_COMMON_CYCLES_H_

#include <chrono>
#include <cmath>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define CCKVS_HAVE_RDTSC 1
#else
#define CCKVS_HAVE_RDTSC 0
#endif

namespace cckvs {

// Monotonic-enough cycle counter: rdtsc on x86-64 (constant_tsc is assumed,
// as on every production part this decade), steady_clock nanoseconds
// elsewhere (CyclesPerNs() then calibrates to ~1.0 and the math still holds).
inline std::uint64_t CycleNow() {
#if CCKVS_HAVE_RDTSC
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

// Cycles per nanosecond, calibrated once per process on first call (~10ms).
inline double CyclesPerNs() {
  static const double kCyclesPerNs = [] {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t c0 = CycleNow();
    // Busy-wait ~10ms; sleep would let the TSC drift-measure the scheduler.
    while (std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(10)) {
    }
    const std::uint64_t c1 = CycleNow();
    const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - t0);
    const double ns = static_cast<double>(elapsed.count());
    const double cycles = static_cast<double>(c1 - c0);
    return ns > 0 && cycles > 0 ? cycles / ns : 1.0;
  }();
  return kCyclesPerNs;
}

inline std::uint64_t CyclesToNs(std::uint64_t cycles) {
  return static_cast<std::uint64_t>(static_cast<double>(cycles) / CyclesPerNs());
}

// Nanoseconds per cycle in 16.48 fixed point: the scale CyclesToNsQ48 takes.
// Read it once, outside the hot path (it may run the calibration).
inline std::uint64_t NsPerCycleQ48() {
  return static_cast<std::uint64_t>(std::ldexp(1.0 / CyclesPerNs(), 48) + 0.5);
}

// CyclesToNs as one multiply, for a per-op path: no static guard, no divide.
// The 48 fraction bits keep it within 1 ns of CyclesToNs up to 2^40 cycles
// (minutes); with 32 the scale's rounding alone would reach 128 ns there.
inline std::uint64_t CyclesToNsQ48(std::uint64_t cycles, std::uint64_t ns_per_cycle_q48) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(cycles) * ns_per_cycle_q48) >> 48);
}

}  // namespace cckvs

#endif  // CCKVS_COMMON_CYCLES_H_
