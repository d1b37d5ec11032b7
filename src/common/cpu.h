// CPU affinity and spin-hinting helpers for the pinned busy-poll run-loop
// mode.
//
// PinCurrentThreadToCore() degrades gracefully: it wraps the requested core
// modulo the online CPU count (a 1-core CI container pins everything to core
// 0 rather than failing).  Pinning is a plain affinity mask, not NUMA-aware.

#ifndef CCKVS_COMMON_CPU_H_
#define CCKVS_COMMON_CPU_H_

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace cckvs {

// Spin-wait hint: tells the core (and a hyper-sibling) that this is a
// busy-poll iteration, not real work.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(_M_X64)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// Pins the calling thread to `core` (wrapped modulo the online CPU count so
// over-subscribed configs still pin deterministically).  Returns the actual
// core pinned to, or -1 when pinning is unsupported or failed.
inline int PinCurrentThreadToCore(int core) {
#if defined(__linux__)
  const long ncpu = sysconf(_SC_NPROCESSORS_ONLN);
  if (ncpu <= 0 || core < 0) {
    return -1;
  }
  const int target = core % static_cast<int>(ncpu);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(target, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    return -1;
  }
  return target;
#else
  (void)core;
  return -1;
#endif
}

}  // namespace cckvs

#endif  // CCKVS_COMMON_CPU_H_
