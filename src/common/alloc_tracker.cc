#include "src/common/alloc_tracker.h"

#include <algorithm>
#include <cstdlib>
#include <new>

// Sanitizer builds intercept malloc/operator new themselves; replacing the
// global operators underneath them breaks their bookkeeping.  Detect both
// GCC's macros and Clang's __has_feature and compile the replacements out.
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CCKVS_ALLOC_TRACKER_DISABLED 1
#else
#define CCKVS_ALLOC_TRACKER_DISABLED 0
#endif

namespace cckvs::alloc {
namespace {

// Plain PODs with constant initialization: operator new can run before any
// dynamic initializer, and thread_local construction must not itself
// allocate.
thread_local bool g_enabled = false;
thread_local std::uint64_t g_count = 0;

}  // namespace

bool TrackerAvailable() { return !CCKVS_ALLOC_TRACKER_DISABLED; }

void EnableThread() { g_enabled = true; }

void DisableThread() { g_enabled = false; }

std::uint64_t ThreadCount() { return g_count; }

void ResetThread() { g_count = 0; }

namespace internal {

inline void Note() {
  if (g_enabled) {
    ++g_count;
  }
}

}  // namespace internal
}  // namespace cckvs::alloc

#if !CCKVS_ALLOC_TRACKER_DISABLED

namespace {

void* TrackedAlloc(std::size_t size) {
  cckvs::alloc::internal::Note();
  if (size == 0) {
    size = 1;
  }
  return std::malloc(size);
}

void* TrackedAlignedAlloc(std::size_t size, std::size_t align) {
  cckvs::alloc::internal::Note();
  if (size == 0) {
    size = 1;
  }
  // operator new takes any power of two (std::pmr::new_delete_resource asks
  // for alignof(char)); posix_memalign refuses one below a pointer's.
  align = std::max(align, sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, align, size) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = TrackedAlloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) {
  void* p = TrackedAlloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return TrackedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return TrackedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = TrackedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = TrackedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return TrackedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return TrackedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, std::size_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // !CCKVS_ALLOC_TRACKER_DISABLED
