// Size-class slab allocator for store records (MICA-style value storage).
//
// Records live in geometric size classes carved out of grow-only arenas.  Slab
// memory is never unmapped, which is what makes the seqlock read protocol safe:
// a reader racing with a concurrent free/reuse may copy garbage bytes, but never
// touches unmapped memory, and the seqlock version check discards the torn copy.
// Chunks are cache-line aligned and every class is a multiple of 32 B, so a
// record of 64 B or more starts on a line and one of at most 64 B never
// straddles two.

#ifndef CCKVS_STORE_SLAB_H_
#define CCKVS_STORE_SLAB_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/check.h"

namespace cckvs {

class SlabAllocator {
 public:
  // Reference to an allocated record slot.
  struct Ref {
    std::uint8_t cls = 0;
    std::uint32_t idx = 0;

    friend bool operator==(const Ref&, const Ref&) = default;
  };

  // Size classes: 32, 64, 128, ..., 32 * 2^(kNumClasses-1) bytes.
  static constexpr int kNumClasses = 10;  // up to 16 KiB records
  static constexpr std::size_t kMinClassBytes = 32;

  SlabAllocator() = default;
  SlabAllocator(const SlabAllocator&) = delete;
  SlabAllocator& operator=(const SlabAllocator&) = delete;

  // Smallest class that fits `bytes`; CHECKs that one exists.
  static int ClassFor(std::size_t bytes);
  static std::size_t ClassBytes(int cls);

  // Allocates a slot able to hold `bytes`.  Thread-safe.
  Ref Allocate(std::size_t bytes);

  // Maps, on the calling thread, the chunks the next `slots` Allocate(bytes)
  // calls that take fresh slots will land in.  A bulk loader on another
  // thread then writes only memory this thread allocated, so the arena keeps
  // the caller's heap and its huge pages.  Changes no counter but
  // arena_bytes, which reaches what those allocations would have made it.
  void Reserve(std::size_t bytes, std::size_t slots);

  // Returns a slot to its class freelist.  Thread-safe.  The memory stays
  // mapped and may be reused by a later Allocate.
  void Free(Ref ref);

  // Raw record storage; stable for the lifetime of the allocator.  Requires a
  // valid ref (writer paths).
  char* Data(Ref ref);
  const char* Data(Ref ref) const;

  // Tolerant variant for the seqlock read path: a torn bucket read can produce a
  // garbage ref, so out-of-range or unmapped refs return nullptr instead of
  // faulting; the caller's ReadRetry() then discards the attempt.
  const char* TryData(Ref ref) const;

  std::uint64_t allocated_slots() const {
    return allocated_.load(std::memory_order_relaxed);
  }
  std::uint64_t freed_slots() const { return freed_.load(std::memory_order_relaxed); }
  std::uint64_t arena_bytes() const {
    return arena_bytes_.load(std::memory_order_relaxed);
  }

  // Point-in-time snapshot of the atomic counters; safe to call from any
  // thread concurrently with Allocate/Free (live-runtime reporting path).
  struct Stats {
    std::uint64_t allocated_slots = 0;
    std::uint64_t freed_slots = 0;
    std::uint64_t live_slots = 0;
    std::uint64_t arena_bytes = 0;
  };
  Stats stats() const {
    Stats s;
    s.allocated_slots = allocated_slots();
    s.freed_slots = freed_slots();
    s.live_slots = s.allocated_slots - s.freed_slots;
    s.arena_bytes = arena_bytes();
    return s;
  }

 private:
  // Slots per arena chunk, per class (kept small so tiny tests stay tiny).
  static constexpr std::uint32_t kChunkSlots = 1024;
  // Hard cap per class: 4096 chunks x 1024 slots = 4M records per class.
  static constexpr std::uint32_t kMaxChunks = 4096;

  struct alignas(64) CacheLine {
    char bytes[64];
  };

  struct SizeClass {
    std::mutex mu;
    // Readers resolve Data() through these atomics without taking `mu`; the
    // array is fixed-size so there is no reallocation race.  `owned` keeps the
    // allocations alive and is only touched under `mu`.
    std::atomic<char*> chunk_ptrs[kMaxChunks] = {};
    std::vector<std::unique_ptr<CacheLine[]>> owned;
    std::vector<std::uint32_t> freelist;
    std::uint32_t next_unused = 0;  // high-water mark across chunks
  };

  // Maps chunks of class `cls` until `chunks` exist.  Caller holds sc.mu.
  void GrowLocked(int cls, std::size_t chunks);

  SizeClass classes_[kNumClasses];
  std::atomic<std::uint64_t> allocated_{0};
  std::atomic<std::uint64_t> freed_{0};
  std::atomic<std::uint64_t> arena_bytes_{0};
};

}  // namespace cckvs

#endif  // CCKVS_STORE_SLAB_H_
