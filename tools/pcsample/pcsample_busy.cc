// A program with a known profile, for the pcsample smoke test:
// PcsampleHotLoop burns four times the CPU of PcsampleWarmLoop, so a working
// sampler puts it at the top of the flat profile.

#include <cstdint>
#include <cstdio>

__attribute__((noinline)) std::uint64_t PcsampleHotLoop(std::uint64_t n) {
  std::uint64_t x = n;
  for (std::uint64_t i = 0; i < n; ++i) {
    x = (x + i) * 0xff51afd7ed558ccdull;
    x ^= x >> 29;
  }
  return x;
}

__attribute__((noinline)) std::uint64_t PcsampleWarmLoop(std::uint64_t n) {
  std::uint64_t x = n + 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    x = (x ^ i) * 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 31;
  }
  return x;
}

int main() {
  constexpr std::uint64_t kWarm = 60'000'000;
  const std::uint64_t hot = PcsampleHotLoop(4 * kWarm);
  const std::uint64_t warm = PcsampleWarmLoop(kWarm);
  std::printf("%llx\n", static_cast<unsigned long long>(hot ^ warm));
  return 0;
}
