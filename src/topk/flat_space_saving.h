// Allocation-free Space-Saving stream summary (Metwally et al. [35]).
//
// The one top-k sketch in the repo, used twice: the epoch coordinator
// (topk/epoch_coordinator.h) ranks the rack-wide hot set from a sampled
// request stream, as §4 adopts from Li et al. [32], and each node's L1 tail
// admission (cache/l1_tail.h) is offered a key on EVERY miss completion inside
// the steady-state window, where the alloc_assert audit forbids heap
// allocation.  Space-Saving tracks approximately the `capacity` most frequent
// keys in O(capacity) memory: every key with true count > N/capacity is
// present, and a reported count overestimates by at most its error.  The
// replacement rule evicts a minimum counter and the newcomer inherits its
// count as error.
//
// Layout: Metwally's Stream-Summary, flattened into three preallocated
// arrays, so every Offer is O(1) (one hash probe plus a constant number of
// slot and group writes):
//
//  * slots_   one slot per tracked key {key, error, group, index_pos}, kept
//             sorted by count, descending; the tail slot always holds a
//             minimum count.
//  * groups_  one Group {count, first, last} per run of equal counts: the
//             count lives in the group, and its slots are slots_[first..last].
//             Freed groups are chained through `first`; the array is reserved
//             at capacity and touched only as runs open.
//  * index_   open-addressing key -> slot position with backward-shift
//             deletion; each slot keeps its index position as a backlink, so
//             moving a slot is an O(1) index write, not a probe.
//
// An increment swaps the slot with the first slot of its run, then joins the
// run above (count + 1) or opens a new one.  A newcomer enters at the tail
// with count 0 — taking over the tail slot when the sketch is full — and is
// incremented the same way.  After construction only TopK() allocates.
//
// DecayHalve() ages the sketch for drifting popularity: x -> x/2 keeps the
// order, so it halves every count in place and merges the adjacent runs it
// makes equal (2k and 2k+1) in one O(m) pass.

#ifndef CCKVS_TOPK_FLAT_SPACE_SAVING_H_
#define CCKVS_TOPK_FLAT_SPACE_SAVING_H_

#include <cstdint>
#include <vector>

#include "src/common/hash.h"
#include "src/common/types.h"

namespace cckvs {

class FlatSpaceSaving {
 public:
  struct Entry {
    Key key = 0;
    std::uint64_t count = 0;  // estimated frequency (upper bound)
    std::uint64_t error = 0;  // overestimation bound inherited at replacement
  };

  explicit FlatSpaceSaving(std::size_t capacity);

  // Counts one occurrence of `key`; returns its estimated count afterwards.
  // When `guaranteed` is non-null it receives count - error: the number of
  // sightings PROVEN for this key while it was tracked.  Admission gates on
  // the guaranteed count — once the sketch saturates, a replacement victim's
  // inherited minimum makes every one-hit wonder's estimate look large, and
  // admitting on the estimate would churn the L1 with keys that were seen
  // exactly once.  O(1), allocation-free.
  std::uint64_t Offer(Key key, std::uint64_t* guaranteed = nullptr) {
    return Offer(key, HashKey(key), guaranteed);
  }
  // Same, for a caller that already holds hash == HashKey(key).
  std::uint64_t Offer(Key key, std::uint64_t hash, std::uint64_t* guaranteed);

  // Halves every count and error (aging for drift).  Allocation-free.
  void DecayHalve();

  // Estimated count of `key`, 0 when untracked.  Allocation-free.
  std::uint64_t EstimateOf(Key key) const;

  // The k highest counters, descending (ties by key).  Allocates — epoch
  // boundaries, tests and diagnostics only.
  std::vector<Entry> TopK(std::size_t k) const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return slots_.size(); }

 private:
  struct Slot {
    Key key;
    std::uint64_t error;
    std::uint32_t group;      // groups_ position of this slot's run
    std::uint32_t index_pos;  // index_ position pointing back at this slot
  };
  struct Group {
    std::uint64_t count;
    std::uint32_t first;  // slot range [first, last]; next free group when freed
    std::uint32_t last;
  };

  // HashIndex's bits (src/common/hash.h), as in the L1 tail it feeds.
  std::size_t IndexHomePos(std::uint64_t hash) const {
    return HashIndex(hash, index_mask_);
  }
  // index_.size() when absent
  std::size_t FindIndexPos(Key key, std::uint64_t hash) const;
  void IndexInsert(std::uint32_t slot, std::uint64_t hash);
  void IndexEraseAt(std::size_t pos);
  std::uint32_t NewGroup(std::uint64_t count, std::uint32_t slot);
  void FreeGroup(std::uint32_t group);
  std::uint32_t Increment(std::uint32_t slot);  // returns the new position

  std::size_t capacity_;
  std::vector<Slot> slots_;    // descending by count
  std::vector<Group> groups_;  // live runs and the free chain
  std::uint32_t free_group_;   // head of the free chain, kNone when empty

  // Open-addressing index: position -> slot position (-1 = free).
  static constexpr std::int32_t kEmpty = -1;
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::int32_t> index_;
  std::size_t index_mask_;
};

}  // namespace cckvs

#endif  // CCKVS_TOPK_FLAT_SPACE_SAVING_H_
