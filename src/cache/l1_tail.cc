#include "src/cache/l1_tail.h"

#include "src/common/check.h"
#include "src/common/hash.h"

namespace cckvs {
namespace {

std::size_t NextPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

L1TailCache::L1TailCache(std::size_t capacity, L1Policy /*policy: LRU*/,
                         std::uint32_t value_bytes)
    : capacity_(capacity > 0 ? capacity : 1),
      index_(NextPow2(capacity_ * 2), kEmpty),
      index_mask_(index_.size() - 1),
      keys_(capacity_, 0),
      ts_(capacity_),
      prev_(capacity_, kNil),
      next_(capacity_, kNil) {
  values_.resize(capacity_);
  free_.reserve(capacity_);
  for (std::size_t s = capacity_; s-- > 0;) {
    // Prewarm every value slot so steady-state fills assign in place.
    values_[s].reserve(value_bytes);
    free_.push_back(static_cast<std::uint32_t>(s));
  }
}

void L1TailCache::IndexInsert(std::uint64_t hash, std::size_t slot) {
  std::size_t pos = IndexHome(hash);
  while (index_[pos] != kEmpty) {
    pos = (pos + 1) & index_mask_;
  }
  index_[pos] = static_cast<std::int32_t>(slot);
}

// Linear-probing deletion by backward shift: walk the cluster after `pos`
// and pull back any entry whose home position no longer reaches it through
// the hole.  No tombstones, so probe lengths never degrade under the L1's
// invalidation-heavy workload.
void L1TailCache::IndexEraseAt(std::size_t pos) {
  index_[pos] = kEmpty;
  std::size_t hole = pos;
  std::size_t probe = pos;
  while (true) {
    probe = (probe + 1) & index_mask_;
    if (index_[probe] == kEmpty) {
      return;
    }
    const std::size_t home =
        IndexHome(HashKey(keys_[static_cast<std::size_t>(index_[probe])]));
    // Move iff `home` is not cyclically inside (hole, probe].
    const bool reachable = hole < probe ? (home > hole && home <= probe)
                                        : (home > hole || home <= probe);
    if (!reachable) {
      index_[hole] = index_[probe];
      index_[probe] = kEmpty;
      hole = probe;
    }
  }
}

void L1TailCache::Unlink(std::size_t slot) {
  const std::size_t p = prev_[slot];
  const std::size_t n = next_[slot];
  if (p == kNil) {
    head_ = n;
  } else {
    next_[p] = n;
  }
  if (n == kNil) {
    tail_ = p;
  } else {
    prev_[n] = p;
  }
  prev_[slot] = kNil;
  next_[slot] = kNil;
}

void L1TailCache::PushFront(std::size_t slot) {
  prev_[slot] = kNil;
  next_[slot] = head_;
  if (head_ != kNil) {
    prev_[head_] = slot;
  }
  head_ = slot;
  if (tail_ == kNil) {
    tail_ = slot;
  }
}

void L1TailCache::Touch(std::size_t slot) {
  if (head_ != slot) {
    Unlink(slot);
    PushFront(slot);
  }
}

void L1TailCache::EraseSlot(std::size_t slot, std::size_t pos) {
  IndexEraseAt(pos);
  Unlink(slot);
  values_[slot].clear();  // keeps the reservation; drops the stale bytes
  free_.push_back(static_cast<std::uint32_t>(slot));
  --live_;
}

bool L1TailCache::Get(Key key, std::uint64_t hash, Value* value, Timestamp* ts) {
  const std::size_t pos = FindIndexPos(key, hash);
  if (pos == index_.size()) {
    ++stats_.misses;
    return false;
  }
  const std::size_t slot = static_cast<std::size_t>(index_[pos]);
  value->assign(values_[slot]);
  *ts = ts_[slot];
  Touch(slot);
  ++stats_.hits;
  return true;
}

bool L1TailCache::PeekTimestamp(Key key, Timestamp* ts) const {
  const std::size_t pos = FindIndexPos(key, HashKey(key));
  if (pos == index_.size()) {
    return false;
  }
  *ts = ts_[static_cast<std::size_t>(index_[pos])];
  return true;
}

void L1TailCache::Fill(Key key, std::uint64_t hash, const Value& value,
                       Timestamp ts) {
  const std::size_t pos = FindIndexPos(key, hash);
  if (pos != index_.size()) {
    // Refresh in place: a newer authoritative read for an already-resident
    // key (e.g. re-admission racing an invalidation).
    const std::size_t slot = static_cast<std::size_t>(index_[pos]);
    values_[slot].assign(value);
    ts_[slot] = ts;
    Touch(slot);
    ++stats_.fills;
    return;
  }
  if (free_.empty()) {
    CCKVS_CHECK(tail_ != kNil);
    const std::size_t victim_pos = FindIndexPos(keys_[tail_], HashKey(keys_[tail_]));
    CCKVS_CHECK(victim_pos < index_.size());
    EraseSlot(tail_, victim_pos);
    ++stats_.evictions;
  }
  const std::size_t slot = static_cast<std::size_t>(free_.back());
  free_.pop_back();
  keys_[slot] = key;
  values_[slot].assign(value);
  ts_[slot] = ts;
  IndexInsert(hash, slot);
  PushFront(slot);
  ++live_;
  ++stats_.fills;
}

bool L1TailCache::Invalidate(Key key, std::uint64_t hash) {
  const std::size_t pos = FindIndexPos(key, hash);
  if (pos == index_.size()) {
    return false;
  }
  EraseSlot(static_cast<std::size_t>(index_[pos]), pos);
  ++stats_.invalidations;
  return true;
}

std::vector<Key> L1TailCache::Keys() const {
  std::vector<Key> keys;
  keys.reserve(live_);
  for (const std::int32_t slot : index_) {
    if (slot != kEmpty) {
      keys.push_back(keys_[static_cast<std::size_t>(slot)]);
    }
  }
  return keys;
}

}  // namespace cckvs
