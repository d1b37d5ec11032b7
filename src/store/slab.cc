#include "src/store/slab.h"

namespace cckvs {

int SlabAllocator::ClassFor(std::size_t bytes) {
  std::size_t cls_bytes = kMinClassBytes;
  for (int cls = 0; cls < kNumClasses; ++cls) {
    if (bytes <= cls_bytes) {
      return cls;
    }
    cls_bytes *= 2;
  }
  CCKVS_CHECK(false && "record larger than the largest slab class");
  return -1;
}

std::size_t SlabAllocator::ClassBytes(int cls) {
  CCKVS_DCHECK(cls >= 0 && cls < kNumClasses);
  return kMinClassBytes << cls;
}

SlabAllocator::Ref SlabAllocator::Allocate(std::size_t bytes) {
  const int cls = ClassFor(bytes);
  SizeClass& sc = classes_[cls];
  std::lock_guard<std::mutex> lock(sc.mu);
  std::uint32_t idx;
  if (!sc.freelist.empty()) {
    idx = sc.freelist.back();
    sc.freelist.pop_back();
  } else {
    idx = sc.next_unused++;
    GrowLocked(cls, std::size_t{idx / kChunkSlots} + 1);
  }
  allocated_.fetch_add(1, std::memory_order_relaxed);
  return Ref{static_cast<std::uint8_t>(cls), idx};
}

void SlabAllocator::Reserve(std::size_t bytes, std::size_t slots) {
  if (slots == 0) {
    return;
  }
  const int cls = ClassFor(bytes);
  SizeClass& sc = classes_[cls];
  std::lock_guard<std::mutex> lock(sc.mu);
  const std::size_t last = sc.next_unused + slots - 1;  // highest index to map
  GrowLocked(cls, last / kChunkSlots + 1);
}

void SlabAllocator::GrowLocked(int cls, std::size_t chunks) {
  CCKVS_CHECK_LE(chunks, std::size_t{kMaxChunks});
  SizeClass& sc = classes_[cls];
  const std::size_t chunk_bytes = ClassBytes(cls) * kChunkSlots;
  while (sc.owned.size() < chunks) {
    sc.owned.push_back(std::make_unique<CacheLine[]>(chunk_bytes / sizeof(CacheLine)));
    sc.chunk_ptrs[sc.owned.size() - 1].store(
        reinterpret_cast<char*>(sc.owned.back().get()), std::memory_order_release);
    arena_bytes_.fetch_add(chunk_bytes, std::memory_order_relaxed);
  }
}

void SlabAllocator::Free(Ref ref) {
  SizeClass& sc = classes_[ref.cls];
  std::lock_guard<std::mutex> lock(sc.mu);
  CCKVS_DCHECK_LT(ref.idx, sc.next_unused);
  sc.freelist.push_back(ref.idx);
  freed_.fetch_add(1, std::memory_order_relaxed);
}

char* SlabAllocator::Data(Ref ref) {
  SizeClass& sc = classes_[ref.cls];
  const std::uint32_t chunk = ref.idx / kChunkSlots;
  const std::uint32_t slot = ref.idx % kChunkSlots;
  char* base = sc.chunk_ptrs[chunk].load(std::memory_order_acquire);
  CCKVS_DCHECK(base != nullptr);
  return base + static_cast<std::size_t>(slot) * ClassBytes(ref.cls);
}

const char* SlabAllocator::Data(Ref ref) const {
  return const_cast<SlabAllocator*>(this)->Data(ref);
}

const char* SlabAllocator::TryData(Ref ref) const {
  if (ref.cls >= kNumClasses) {
    return nullptr;
  }
  const std::uint32_t chunk = ref.idx / kChunkSlots;
  if (chunk >= kMaxChunks) {
    return nullptr;
  }
  const SizeClass& sc = classes_[ref.cls];
  const char* base = sc.chunk_ptrs[chunk].load(std::memory_order_acquire);
  if (base == nullptr) {
    return nullptr;
  }
  const std::uint32_t slot = ref.idx % kChunkSlots;
  return base + static_cast<std::size_t>(slot) * ClassBytes(ref.cls);
}

}  // namespace cckvs
