// pcsample: a function-level CPU profiler that needs no kernel support beyond
// setitimer.  Preload it into any program:
//
//   LD_PRELOAD=build/tools/pcsample/libpcsample.so PCSAMPLE_OUT=/tmp/prof ./prog
//
// or, simpler, let tools/pcsample.py record and report in one step.  At
// load it arms ITIMER_PROF, which sends SIGPROF each time the process has
// used another millisecond of CPU, to whichever of its threads is running.
// The handler stores the interrupted program counter in a preallocated
// buffer; at exit the library writes the PCs and /proc/self/maps to
// PCSAMPLE_OUT.<pid>, from which tools/pcsample.py resolves functions with
// addr2line.
//
// Limits: the kernel checks the timer on its scheduler tick, so a process
// gets at most one sample per tick however many threads it runs; every
// phase of the process is sampled, set-up included; a process that leaves
// through _exit writes nothing; forked children sample on their own (the
// buffer is reset and the timer re-armed in the child).

#include <pthread.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr std::size_t kCapacity = std::size_t{1} << 20;  // ~17 min of 1 ms samples

std::uintptr_t g_pcs[kCapacity];
std::atomic<std::size_t> g_count{0};
constexpr long kIntervalUs = 1000;
bool g_armed = false;

void OnProf(int /*sig*/, siginfo_t* /*info*/, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  const std::uintptr_t pc = 0;
  (void)uc;
#endif
  const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i < kCapacity) {
    g_pcs[i] = pc;
  }
}

void SetTimer(long interval_us) {
  itimerval timer{};
  timer.it_interval.tv_sec = interval_us / 1'000'000;
  timer.it_interval.tv_usec = interval_us % 1'000'000;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

void ResetInChild() {
  // Timers are not inherited across fork; the parent's samples are not ours.
  g_count.store(0, std::memory_order_relaxed);
  if (g_armed) {
    SetTimer(kIntervalUs);
  }
}

__attribute__((constructor)) void Start() {
  struct sigaction sa{};
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    return;
  }
  pthread_atfork(nullptr, nullptr, ResetInChild);
  g_armed = true;
  SetTimer(kIntervalUs);
}

__attribute__((destructor)) void Dump() {
  if (!g_armed) {
    return;
  }
  SetTimer(0);
  signal(SIGPROF, SIG_IGN);
  const char* prefix = std::getenv("PCSAMPLE_OUT");
  if (prefix == nullptr || *prefix == '\0') {
    prefix = "pcsample";
  }
  char path[4096];
  std::snprintf(path, sizeof(path), "%s.%d", prefix, static_cast<int>(getpid()));
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    return;
  }
  const std::size_t taken = g_count.load(std::memory_order_relaxed);
  const std::size_t kept = taken < kCapacity ? taken : kCapacity;
  std::fprintf(out, "pcsample 1\ninterval_us %ld\nsamples %zu dropped %zu\nmaps\n",
               kIntervalUs, kept, taken - kept);
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r"); maps != nullptr) {
    char line[8192];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      std::fputs(line, out);
    }
    std::fclose(maps);
  }
  std::fputs("end-maps\npcs\n", out);
  for (std::size_t i = 0; i < kept; ++i) {
    std::fprintf(out, "%lx\n", static_cast<unsigned long>(g_pcs[i]));
  }
  std::fclose(out);
}

}  // namespace
