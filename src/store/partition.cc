#include "src/store/partition.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/atomic_copy.h"
#include "src/common/check.h"
#include "src/common/hash.h"

namespace cckvs {
namespace {

std::size_t BucketMask(std::size_t buckets) {
  const std::size_t n = std::bit_ceil(std::max<std::size_t>(buckets, 2));
  CCKVS_CHECK_LE(n, kHashIndexMaxSlots);  // HashIndex hands out 32 index bits
  return n - 1;
}

}  // namespace

Partition::Partition(const PartitionConfig& config)
    : config_(config),
      bucket_mask_(BucketMask(config.buckets)),
      buckets_(bucket_mask_ + 1) {}

Partition::~Partition() = default;

Partition::Stripe& Partition::MyStripe() const {
  // Constant-initialized thread_local: no guard call on the hot path.
  static std::atomic<std::size_t> next_thread{0};
  thread_local std::size_t stripe = kStripes;
  if (stripe == kStripes) {
    stripe = next_thread.fetch_add(1, std::memory_order_relaxed) % kStripes;
  }
  return stripes_[stripe];
}

void Partition::GrowOverflowLocked() {
  const std::size_t chunk = overflow_owned_.size();
  CCKVS_CHECK_LT(chunk, std::size_t{kMaxOverflowChunks});
  overflow_owned_.push_back(std::make_unique<Bucket[]>(kOverflowChunkSize));
  overflow_chunks_[chunk].store(overflow_owned_.back().get(), std::memory_order_release);
}

Partition::Bucket* Partition::OverflowBucket(std::uint32_t idx) const {
  const std::uint32_t chunk = idx / kOverflowChunkSize;
  if (chunk >= kMaxOverflowChunks) {
    return nullptr;  // torn read of the overflow index
  }
  Bucket* base = overflow_chunks_[chunk].load(std::memory_order_acquire);
  if (base == nullptr) {
    return nullptr;
  }
  return base + idx % kOverflowChunkSize;
}

void Partition::WriteRecord(SlabAllocator::Ref ref, Key key, const Value& value,
                            Timestamp ts, std::uint8_t flags) {
  char* data = slab_.Data(ref);
  RecordHeader hdr;
  hdr.key = key;
  hdr.clock = ts.clock;
  hdr.len = static_cast<std::uint32_t>(value.size());
  hdr.writer = ts.writer;
  hdr.flags = flags;
  // Relaxed atomic stores: lock-free readers may race with this copy and
  // observe a torn record, which their seqlock version check discards.
  RelaxedCopyToShared(data, &hdr, sizeof(hdr));
  RelaxedCopyToShared(data + sizeof(hdr), value.data(), value.size());
}

bool Partition::Lookup(Key key, std::uint64_t hash, Value* value, Timestamp* ts,
                       bool* cache_resident) const {
  CCKVS_DCHECK_EQ(hash, HashKey(key));
  const std::uint16_t tag = TagOf(hash);
  const Bucket& head = buckets_[BucketOf(hash)];

  while (true) {
    const std::uint32_t version = head.lock.ReadBegin();
    bool found = false;
    bool found_resident = false;
    Timestamp found_ts{};
    const Bucket* bucket = &head;
    while (bucket != nullptr && !found) {
      for (const AtomicSlot& atomic_slot : bucket->slots) {
        const Slot slot = atomic_slot.load();
        if (slot.used == 0 || slot.tag != tag) {
          continue;
        }
        const char* data = slab_.TryData(slot.ref);
        if (data == nullptr) {
          break;  // torn ref; the retry check below sorts it out
        }
        RecordHeader hdr;
        RelaxedCopyFromShared(&hdr, data, sizeof(hdr));
        if (hdr.key != key) {
          continue;  // tag collision
        }
        const std::size_t capacity =
            SlabAllocator::ClassBytes(slot.ref.cls) - sizeof(RecordHeader);
        const std::size_t len = hdr.len <= capacity ? hdr.len : capacity;
        if (value != nullptr) {
          value->resize(len);
          RelaxedCopyFromShared(value->data(), data + sizeof(hdr), len);
        }
        found_ts = Timestamp{hdr.clock, hdr.writer};
        found_resident = (hdr.flags & kFlagCacheResident) != 0;
        found = true;
        break;
      }
      if (!found) {
        const std::uint32_t next = bucket->overflow.load(std::memory_order_relaxed);
        bucket = next == kNoOverflow ? nullptr : OverflowBucket(next);
      }
    }
    if (head.lock.ReadRetry(version)) {
      Bump(MyStripe().retries);
      continue;
    }
    if (found) {
      if (ts != nullptr) {
        *ts = found_ts;
      }
      if (cache_resident != nullptr) {
        *cache_resident = found_resident;
      }
      return true;
    }
    if (cache_resident != nullptr) {
      *cache_resident = false;
    }
    return false;
  }
}

bool Partition::Get(Key key, std::uint64_t hash, Value* value, Timestamp* ts,
                    bool* cache_resident) const {
  Stripe& stripe = MyStripe();
  Bump(stripe.gets);
  if (Lookup(key, hash, value, ts, cache_resident)) {
    return true;
  }
  if (config_.synthesize || config_.synthesize_into) {
    Bump(stripe.synthesized);
    if (value != nullptr) {
      if (config_.synthesize_into) {
        config_.synthesize_into(key, value);  // reuses the caller's capacity
      } else {
        *value = config_.synthesize(key);
      }
    }
    if (ts != nullptr) {
      *ts = Timestamp{};
    }
    return true;
  }
  Bump(stripe.misses);
  return false;
}

bool Partition::PeekTimestamp(Key key, std::uint64_t hash, Timestamp* ts,
                              bool* cache_resident) const {
  Bump(MyStripe().peeks);
  if (Lookup(key, hash, nullptr, ts, cache_resident)) {
    return true;
  }
  if (config_.synthesize || config_.synthesize_into) {
    if (ts != nullptr) {
      *ts = Timestamp{};
    }
    return true;
  }
  return false;
}

void Partition::PrefetchRecord(std::uint64_t hash) const {
  const std::uint16_t tag = TagOf(hash);
  for (const AtomicSlot& atomic_slot : buckets_[BucketOf(hash)].slots) {
    const Slot slot = atomic_slot.load();
    if (slot.used != 0 && slot.tag == tag) {
      if (const char* data = slab_.TryData(slot.ref); data != nullptr) {
        __builtin_prefetch(data);
      }
      return;
    }
  }
}

void Partition::NoteLoad(std::uint64_t hash) {
  if (load_heads_.empty()) {
    load_heads_.resize(buckets_.size());
  }
  ++load_heads_[BucketOf(hash)];
}

void Partition::ReserveLoad(std::size_t value_bytes) {
  std::size_t records = 0;
  std::size_t overflow = 0;
  for (const std::uint32_t keys : load_heads_) {
    records += keys;
    // Inserts fill the head bucket's ways, then chain full overflow buckets.
    overflow += keys > kWays ? (keys - 1) / kWays : 0;
  }
  std::vector<std::uint32_t>().swap(load_heads_);
  slab_.Reserve(sizeof(RecordHeader) + value_bytes, records);
  std::lock_guard<std::mutex> lock(overflow_mu_);
  const std::size_t needed = overflow_count_.load(std::memory_order_relaxed) + overflow;
  while (overflow_owned_.size() * kOverflowChunkSize < needed) {
    GrowOverflowLocked();
  }
}

Partition::AtomicSlot* Partition::FindSlot(Bucket& head, Key key, std::uint16_t tag) {
  Bucket* bucket = &head;
  while (bucket != nullptr) {
    for (AtomicSlot& atomic_slot : bucket->slots) {
      // Under the bucket writer lock the slot cannot change; the relaxed load
      // just decodes the packed form.
      const Slot slot = atomic_slot.load();
      if (slot.used != 0 && slot.tag == tag) {
        const char* data = slab_.Data(slot.ref);
        RecordHeader hdr;
        RelaxedCopyFromShared(&hdr, data, sizeof(hdr));
        if (hdr.key == key) {
          return &atomic_slot;
        }
      }
    }
    const std::uint32_t next = bucket->overflow.load(std::memory_order_relaxed);
    bucket = next == kNoOverflow ? nullptr : OverflowBucket(next);
  }
  return nullptr;
}

Partition::AtomicSlot* Partition::FreeSlot(Bucket& head) {
  Bucket* bucket = &head;
  while (true) {
    for (AtomicSlot& atomic_slot : bucket->slots) {
      if (atomic_slot.load().used == 0) {
        return &atomic_slot;
      }
    }
    if (bucket->overflow.load(std::memory_order_relaxed) == kNoOverflow) {
      // Extend the chain.  Allocation is serialized by overflow_mu_; linking is
      // covered by the head bucket's writer lock held by our caller.
      std::lock_guard<std::mutex> lock(overflow_mu_);
      const std::uint32_t idx = overflow_count_.fetch_add(1, std::memory_order_relaxed);
      if (idx / kOverflowChunkSize >= overflow_owned_.size()) {
        GrowOverflowLocked();
      }
      bucket->overflow.store(idx, std::memory_order_relaxed);
      return &OverflowBucket(idx)->slots[0];
    }
    bucket = OverflowBucket(bucket->overflow.load(std::memory_order_relaxed));
  }
}

void Partition::PutLocked(Bucket& head, Key key, std::uint16_t tag,
                          const Value& value, Timestamp ts, std::uint8_t flags) {
  AtomicSlot* found = FindSlot(head, key, tag);
  if (found != nullptr) {
    Slot slot = found->load();
    const int needed_cls = SlabAllocator::ClassFor(sizeof(RecordHeader) + value.size());
    if (needed_cls == slot.ref.cls) {
      WriteRecord(slot.ref, key, value, ts, flags);
    } else {
      const SlabAllocator::Ref fresh =
          slab_.Allocate(sizeof(RecordHeader) + value.size());
      WriteRecord(fresh, key, value, ts, flags);
      const SlabAllocator::Ref old = slot.ref;
      slot.ref = fresh;
      found->store(slot);
      slab_.Free(old);
    }
    return;
  }
  AtomicSlot* free_slot = FreeSlot(head);
  Slot slot;
  slot.ref = slab_.Allocate(sizeof(RecordHeader) + value.size());
  WriteRecord(slot.ref, key, value, ts, flags);
  slot.tag = tag;
  slot.used = 1;
  free_slot->store(slot);
  live_records_.fetch_add(1, std::memory_order_relaxed);
}

Timestamp Partition::Put(Key key, const Value& value) {
  Bump(MyStripe().puts);
  const std::uint64_t h = HashKey(key);
  const std::uint16_t tag = TagOf(h);
  Bucket& head = buckets_[BucketOf(h)];
  SeqlockWriteGuard guard(head.lock);
  Timestamp ts{1, config_.node_id};
  std::uint8_t flags = 0;
  if (AtomicSlot* found = FindSlot(head, key, tag); found != nullptr) {
    RecordHeader hdr;
    RelaxedCopyFromShared(&hdr, slab_.Data(found->load().ref), sizeof(hdr));
    ts = Timestamp{hdr.clock + 1, config_.node_id};
    flags = hdr.flags;
  }
  PutLocked(head, key, tag, value, ts, flags);
  return ts;
}

bool Partition::TryPut(Key key, std::uint64_t hash, const Value& value,
                       Timestamp* ts) {
  CCKVS_DCHECK_EQ(hash, HashKey(key));
  const std::uint16_t tag = TagOf(hash);
  Bucket& head = buckets_[BucketOf(hash)];
  SeqlockWriteGuard guard(head.lock);
  Timestamp fresh{1, config_.node_id};
  if (AtomicSlot* found = FindSlot(head, key, tag); found != nullptr) {
    RecordHeader hdr;
    RelaxedCopyFromShared(&hdr, slab_.Data(found->load().ref), sizeof(hdr));
    if ((hdr.flags & kFlagCacheResident) != 0) {
      return false;  // the hot set owns this key; caller retries the gate
    }
    fresh = Timestamp{hdr.clock + 1, config_.node_id};
  }
  Bump(MyStripe().puts);
  PutLocked(head, key, tag, value, fresh, 0);
  if (ts != nullptr) {
    *ts = fresh;
  }
  return true;
}

bool Partition::Apply(Key key, const Value& value, Timestamp ts) {
  Stripe& stripe = MyStripe();
  Bump(stripe.puts);
  const std::uint64_t h = HashKey(key);
  const std::uint16_t tag = TagOf(h);
  Bucket& head = buckets_[BucketOf(h)];
  SeqlockWriteGuard guard(head.lock);
  std::uint8_t flags = 0;
  if (AtomicSlot* found = FindSlot(head, key, tag); found != nullptr) {
    RecordHeader hdr;
    RelaxedCopyFromShared(&hdr, slab_.Data(found->load().ref), sizeof(hdr));
    if (Timestamp{hdr.clock, hdr.writer} >= ts) {
      Bump(stripe.stale_applies);
      return false;
    }
    flags = hdr.flags;  // applies bypass the gate but must not drop it
  }
  PutLocked(head, key, tag, value, ts, flags);
  return true;
}

Partition::ResidentSnapshot Partition::MarkCacheResident(Key key) {
  const std::uint64_t h = HashKey(key);
  const std::uint16_t tag = TagOf(h);
  Bucket& head = buckets_[BucketOf(h)];
  SeqlockWriteGuard guard(head.lock);
  ResidentSnapshot snap;
  if (AtomicSlot* found = FindSlot(head, key, tag); found != nullptr) {
    const char* data = slab_.Data(found->load().ref);
    RecordHeader hdr;
    RelaxedCopyFromShared(&hdr, data, sizeof(hdr));
    snap.value.resize(hdr.len);
    RelaxedCopyFromShared(snap.value.data(), data + sizeof(hdr), hdr.len);
    snap.ts = Timestamp{hdr.clock, hdr.writer};
    hdr.flags |= kFlagCacheResident;
    RelaxedCopyToShared(slab_.Data(found->load().ref), &hdr, sizeof(hdr));
    return snap;
  }
  // Never-written key entering the hot set: materialize its synthetic value so
  // the flag has a record to live on.
  CCKVS_CHECK(config_.synthesize != nullptr);
  snap.value = config_.synthesize(key);
  snap.ts = Timestamp{};
  PutLocked(head, key, tag, snap.value, snap.ts, kFlagCacheResident);
  return snap;
}

void Partition::ClearCacheResident(Key key) {
  const std::uint64_t h = HashKey(key);
  const std::uint16_t tag = TagOf(h);
  Bucket& head = buckets_[BucketOf(h)];
  SeqlockWriteGuard guard(head.lock);
  AtomicSlot* found = FindSlot(head, key, tag);
  CCKVS_CHECK(found != nullptr);  // MarkCacheResident materialized the record
  char* data = slab_.Data(found->load().ref);
  RecordHeader hdr;
  RelaxedCopyFromShared(&hdr, data, sizeof(hdr));
  hdr.flags &= static_cast<std::uint8_t>(~kFlagCacheResident);
  RelaxedCopyToShared(data, &hdr, sizeof(hdr));
}

bool Partition::Erase(Key key) {
  const std::uint64_t h = HashKey(key);
  const std::uint16_t tag = TagOf(h);
  Bucket& head = buckets_[BucketOf(h)];
  SeqlockWriteGuard guard(head.lock);
  AtomicSlot* found = FindSlot(head, key, tag);
  if (found == nullptr) {
    return false;
  }
  Slot slot = found->load();
  slot.used = 0;
  found->store(slot);
  slab_.Free(slot.ref);
  live_records_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool Partition::Contains(Key key) const { return ChainDepth(key) >= 0; }

int Partition::ChainDepth(Key key) const {
  const std::uint64_t h = HashKey(key);
  const std::uint16_t tag = TagOf(h);
  const Bucket& head = buckets_[BucketOf(h)];
  while (true) {
    const std::uint32_t version = head.lock.ReadBegin();
    int depth = -1;
    int walked = 0;
    const Bucket* bucket = &head;
    while (bucket != nullptr && depth < 0) {
      for (const AtomicSlot& atomic_slot : bucket->slots) {
        const Slot slot = atomic_slot.load();
        if (slot.used != 0 && slot.tag == tag) {
          const char* data = slab_.TryData(slot.ref);
          if (data == nullptr) {
            break;
          }
          RecordHeader hdr;
          RelaxedCopyFromShared(&hdr, data, sizeof(hdr));
          if (hdr.key == key) {
            depth = walked;
            break;
          }
        }
      }
      if (depth < 0) {
        const std::uint32_t next = bucket->overflow.load(std::memory_order_relaxed);
        bucket = next == kNoOverflow ? nullptr : OverflowBucket(next);
        ++walked;
      }
    }
    if (!head.lock.ReadRetry(version)) {
      return depth;
    }
    Bump(MyStripe().retries);
  }
}

PartitionStats Partition::stats() const {
  PartitionStats s;
  const auto relaxed = std::memory_order_relaxed;
  for (const Stripe& stripe : stripes_) {
    s.gets += stripe.gets.load(relaxed);
    s.puts += stripe.puts.load(relaxed);
    s.misses += stripe.misses.load(relaxed);
    s.synthesized_gets += stripe.synthesized.load(relaxed);
    s.read_retries += stripe.retries.load(relaxed);
    s.stale_applies += stripe.stale_applies.load(relaxed);
    s.peeks += stripe.peeks.load(relaxed);
  }
  return s;
}

}  // namespace cckvs
