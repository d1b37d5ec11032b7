#include "src/topk/flat_space_saving.h"

#include <algorithm>

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

FlatSpaceSaving::FlatSpaceSaving(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1),
      free_group_(kNone),
      index_(NextPow2(capacity_ * 2), kEmpty),
      index_mask_(index_.size() - 1) {
  CCKVS_CHECK_LT(capacity_, std::size_t{1} << 30);
  slots_.reserve(capacity_);
  groups_.reserve(capacity_);  // live runs never outnumber slots
}

std::size_t FlatSpaceSaving::FindIndexPos(Key key, std::uint64_t hash) const {
  std::size_t pos = IndexHomePos(hash);
  while (index_[pos] != kEmpty) {
    if (slots_[static_cast<std::size_t>(index_[pos])].key == key) {
      return pos;
    }
    pos = (pos + 1) & index_mask_;
  }
  return index_.size();
}

void FlatSpaceSaving::IndexInsert(std::uint32_t slot, std::uint64_t hash) {
  std::size_t pos = IndexHomePos(hash);
  while (index_[pos] != kEmpty) {
    pos = (pos + 1) & index_mask_;
  }
  index_[pos] = static_cast<std::int32_t>(slot);
  slots_[slot].index_pos = static_cast<std::uint32_t>(pos);
}

// Same backward-shift deletion as cache/l1_tail.cc: no tombstones.
void FlatSpaceSaving::IndexEraseAt(std::size_t pos) {
  index_[pos] = kEmpty;
  std::size_t hole = pos;
  std::size_t probe = pos;
  while (true) {
    probe = (probe + 1) & index_mask_;
    if (index_[probe] == kEmpty) {
      return;
    }
    Slot& moved = slots_[static_cast<std::size_t>(index_[probe])];
    const std::size_t home = IndexHomePos(HashKey(moved.key));
    const bool reachable = hole < probe ? (home > hole && home <= probe)
                                        : (home > hole || home <= probe);
    if (!reachable) {
      index_[hole] = index_[probe];
      moved.index_pos = static_cast<std::uint32_t>(hole);
      index_[probe] = kEmpty;
      hole = probe;
    }
  }
}

std::uint32_t FlatSpaceSaving::NewGroup(std::uint64_t count, std::uint32_t slot) {
  const Group group{count, slot, slot};
  if (free_group_ != kNone) {
    const std::uint32_t g = free_group_;
    free_group_ = groups_[g].first;
    groups_[g] = group;
    return g;
  }
  CCKVS_DCHECK_LT(groups_.size(), capacity_);  // within the reserve
  groups_.push_back(group);
  return static_cast<std::uint32_t>(groups_.size() - 1);
}

void FlatSpaceSaving::FreeGroup(std::uint32_t group) {
  groups_[group].first = free_group_;
  free_group_ = group;
}

// Moves the slot at `slot` to the head of its run, then lifts it one count:
// into the run above when that run holds count + 1, else into a run of its
// own (the old run itself when the slot was its only member).  Returns the
// slot's new position.
std::uint32_t FlatSpaceSaving::Increment(std::uint32_t slot) {
  const std::uint32_t g = slots_[slot].group;
  const std::uint32_t first = groups_[g].first;
  if (slot != first) {
    std::swap(slots_[slot], slots_[first]);  // same run: same group field
    index_[slots_[slot].index_pos] = static_cast<std::int32_t>(slot);
    index_[slots_[first].index_pos] = static_cast<std::int32_t>(first);
  }
  const std::uint64_t count = groups_[g].count + 1;
  const bool alone = groups_[g].last == first;
  if (first > 0 && groups_[slots_[first - 1].group].count == count) {
    const std::uint32_t above = slots_[first - 1].group;
    groups_[above].last = first;
    slots_[first].group = above;
    if (alone) {
      FreeGroup(g);
    } else {
      groups_[g].first = first + 1;
    }
  } else if (alone) {
    groups_[g].count = count;
  } else {
    slots_[first].group = NewGroup(count, first);
    groups_[g].first = first + 1;
  }
  return first;
}

std::uint64_t FlatSpaceSaving::Offer(Key key, std::uint64_t hash,
                                     std::uint64_t* guaranteed) {
  const std::size_t pos = FindIndexPos(key, hash);
  std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  if (pos != index_.size()) {
    slot = static_cast<std::uint32_t>(index_[pos]);
  } else if (slot < capacity_) {
    // A newcomer enters at the tail with count 0, joining a run of zeros
    // (left by DecayHalve) when there is one.
    const bool zeros = slot > 0 && groups_[slots_[slot - 1].group].count == 0;
    const std::uint32_t g = zeros ? slots_[slot - 1].group : NewGroup(0, slot);
    if (zeros) {
      groups_[g].last = slot;
    }
    slots_.push_back(Slot{key, 0, g, 0});  // within the reserve: no allocation
    IndexInsert(slot, hash);
  } else {
    // Space-Saving replacement: the newcomer takes over the tail slot, which
    // holds a minimum count, and inherits that count as its error bound.
    slot -= 1;
    Slot& tail = slots_[slot];
    IndexEraseAt(tail.index_pos);
    tail.key = key;
    tail.error = groups_[tail.group].count;
    IndexInsert(slot, hash);
  }
  const Slot& s = slots_[Increment(slot)];
  const std::uint64_t count = groups_[s.group].count;
  if (guaranteed != nullptr) {
    *guaranteed = count - s.error;
  }
  return count;
}

void FlatSpaceSaving::DecayHalve() {
  // x -> x/2 is monotone, so the slot order survives; only runs 2k and 2k+1
  // (adjacent, 2k+1 above) become equal, and the lower one folds upward.
  std::uint32_t above = kNone;
  std::uint32_t pos = 0;
  while (pos < slots_.size()) {
    const std::uint32_t g = slots_[pos].group;
    Group& group = groups_[g];
    group.count /= 2;
    for (std::uint32_t i = group.first; i <= group.last; ++i) {
      slots_[i].error /= 2;
    }
    pos = group.last + 1;
    if (above != kNone && groups_[above].count == group.count) {
      for (std::uint32_t i = group.first; i <= group.last; ++i) {
        slots_[i].group = above;
      }
      groups_[above].last = group.last;
      FreeGroup(g);
    } else {
      above = g;
    }
  }
}

std::uint64_t FlatSpaceSaving::EstimateOf(Key key) const {
  const std::size_t pos = FindIndexPos(key, HashKey(key));
  if (pos == index_.size()) {
    return 0;
  }
  return groups_[slots_[static_cast<std::size_t>(index_[pos])].group].count;
}

std::vector<FlatSpaceSaving::Entry> FlatSpaceSaving::TopK(std::size_t k) const {
  const std::size_t n = std::min(k, slots_.size());
  if (n == 0) {
    return {};
  }
  // Slots are already in count order; only the run the k-th slot falls in
  // needs its ties broken by key.
  const std::size_t end = groups_[slots_[n - 1].group].last + 1;
  std::vector<Entry> top;
  top.reserve(end);
  for (std::size_t i = 0; i < end; ++i) {
    top.push_back(Entry{slots_[i].key, groups_[slots_[i].group].count, slots_[i].error});
  }
  std::sort(top.begin(), top.end(), [](const Entry& a, const Entry& b) {
    return a.count != b.count ? a.count > b.count : a.key < b.key;
  });
  top.resize(n);
  return top;
}

}  // namespace cckvs
