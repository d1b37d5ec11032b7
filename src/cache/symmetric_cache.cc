#include "src/cache/symmetric_cache.h"

#include <bit>
#include <memory>
#include <unordered_set>
#include <utility>

#include "src/common/check.h"

namespace cckvs {

SymmetricCache::SymmetricCache(std::size_t capacity) : capacity_(capacity) {
  CCKVS_CHECK_GE(capacity, 1u);
  ResetIndex(std::bit_ceil(2 * capacity));
}

SymmetricCache::~SymmetricCache() {
  for (CacheEntry* entry : slot_entries_) {
    if (entry != nullptr) {
      std::destroy_at(entry);
    }
  }
  for (CacheEntry* chunk : chunks_) {
    std::allocator<CacheEntry>().deallocate(chunk, capacity_);
  }
}

void SymmetricCache::ResetIndex(std::size_t slots) {
  slot_keys_.assign(slots, 0);
  slot_entries_.assign(slots, nullptr);
  mask_ = slots - 1;
  shift_ = 64 - std::countr_zero(slots);
}

void SymmetricCache::GrowIndex() {
  const std::vector<Key> keys = std::move(slot_keys_);
  const std::vector<CacheEntry*> entries = std::move(slot_entries_);
  ResetIndex(2 * entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i] != nullptr) {
      const std::size_t slot = SlotOf(keys[i]);
      slot_keys_[slot] = keys[i];
      slot_entries_[slot] = entries[i];
    }
  }
}

void SymmetricCache::EraseSlot(std::size_t hole) {
  for (std::size_t j = (hole + 1) & mask_; slot_entries_[j] != nullptr;
       j = (j + 1) & mask_) {
    // The key at j may move into the hole only if the hole lies on its probe
    // run, i.e. its home slot is no further along than the hole.
    if (((j - HomeSlot(slot_keys_[j])) & mask_) >= ((j - hole) & mask_)) {
      slot_keys_[hole] = slot_keys_[j];
      slot_entries_[hole] = slot_entries_[j];
      hole = j;
    }
  }
  slot_entries_[hole] = nullptr;
}

CacheEntry* SymmetricCache::NewEntry() {
  CacheEntry* storage;
  if (!free_.empty()) {
    storage = free_.back();
    free_.pop_back();
  } else {
    if (chunks_.empty() || chunk_used_ == capacity_) {
      chunks_.push_back(std::allocator<CacheEntry>().allocate(capacity_));
      chunk_used_ = 0;
    }
    storage = chunks_.back() + chunk_used_++;
  }
  return std::construct_at(storage);  // starts in kFilling
}

void SymmetricCache::FreeEntry(CacheEntry* entry) {
  std::destroy_at(entry);
  free_.push_back(entry);
}

void SymmetricCache::Fill(Key key, const Value& value, Timestamp ts) {
  CacheEntry* entry = Find(key);
  CCKVS_CHECK(entry != nullptr);
  // Fills never regress an entry that already advanced past the fill's
  // timestamp (a hot write may have raced ahead of the epoch fill).
  if (entry->state() == CacheState::kFilling) {
    entry->value = value;
    entry->value_ts = ts;
    entry->set_ts(ts);
    entry->set_state(CacheState::kValid);
    ++stats_.fills;
  }
}

std::vector<SymmetricCache::Eviction> SymmetricCache::InstallHotSet(
    const std::vector<Key>& keys) {
  CCKVS_CHECK_LE(keys.size(), capacity_);
  const std::unordered_set<Key> fresh(keys.begin(), keys.end());
  std::vector<Eviction> dirty;
  for (const Key key : Keys()) {
    Eviction ev{};
    if (fresh.count(key) == 0 && Evict(key, &ev)) {
      dirty.push_back(std::move(ev));
    }
  }
  for (const Key key : keys) {
    Admit(key);
  }
  return dirty;
}

void SymmetricCache::Admit(Key key) {
  std::size_t slot = SlotOf(key);
  if (slot_entries_[slot] != nullptr) {
    return;
  }
  if (4 * (size_ + 1) > 3 * slot_entries_.size()) {
    GrowIndex();
    slot = SlotOf(key);
  }
  slot_keys_[slot] = key;
  slot_entries_[slot] = NewEntry();
  ++size_;
}

bool SymmetricCache::Evict(Key key, Eviction* dirty_out) {
  const std::size_t slot = SlotOf(key);
  CacheEntry* entry = slot_entries_[slot];
  if (entry == nullptr) {
    return false;
  }
  // A waiter on an evicted entry would never complete (its session hangs).
  CCKVS_CHECK(!entry->HasWaiters());
  ++stats_.evictions;
  const bool dirty = entry->dirty;
  if (dirty) {
    ++stats_.dirty_evictions;
    // Flush the installed (value, value_ts) pair: for entries in transient
    // states the header timestamp may belong to a newer, not-yet-installed
    // write, and pairing it with the old value would corrupt the shard.
    *dirty_out = Eviction{key, std::move(entry->value), entry->value_ts};
  }
  EraseSlot(slot);
  FreeEntry(entry);
  --size_;
  return dirty;
}

std::vector<Key> SymmetricCache::Keys() const {
  std::vector<Key> keys;
  keys.reserve(size_);
  for (std::size_t i = 0; i < slot_entries_.size(); ++i) {
    if (slot_entries_[i] != nullptr) {
      keys.push_back(slot_keys_[i]);
    }
  }
  return keys;
}

std::vector<Key> SymmetricCache::PendingFills() const {
  std::vector<Key> pending;
  for (std::size_t i = 0; i < slot_entries_.size(); ++i) {
    const CacheEntry* entry = slot_entries_[i];
    if (entry != nullptr && entry->state() == CacheState::kFilling) {
      pending.push_back(slot_keys_[i]);
    }
  }
  return pending;
}

}  // namespace cckvs
