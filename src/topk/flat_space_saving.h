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
// replacement rule evicts the minimum counter and the newcomer inherits its
// count as error.  Everything is stored flat and preallocated: an array
// min-heap of counters plus an open-addressing key->heap-position index with
// backward-shift deletion.  After construction only TopK() allocates.
//
// DecayHalve() ages the sketch for drifting popularity: halving every count
// is monotone, so the heap order is preserved and aging is O(m).

#ifndef CCKVS_TOPK_FLAT_SPACE_SAVING_H_
#define CCKVS_TOPK_FLAT_SPACE_SAVING_H_

#include <cstdint>
#include <vector>

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
  // exactly once.  Allocation-free.
  std::uint64_t Offer(Key key, std::uint64_t* guaranteed = nullptr);

  // Halves every count and error (aging for drift).  Allocation-free.
  void DecayHalve();

  // Estimated count of `key`, 0 when untracked.  Allocation-free.
  std::uint64_t EstimateOf(Key key) const;

  // The k highest counters, descending (ties by key).  Allocates — epoch
  // boundaries, tests and diagnostics only.
  std::vector<Entry> TopK(std::size_t k) const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return heap_.size(); }

 private:
  std::size_t IndexHomePos(Key key) const;
  std::size_t FindIndexPos(Key key) const;  // index_.size() when absent
  void IndexInsert(Key key, std::size_t heap_pos);
  void IndexEraseAt(std::size_t pos);
  void SiftUp(std::size_t heap_pos);
  void SiftDown(std::size_t heap_pos);
  void Swap(std::size_t a, std::size_t b);

  std::size_t capacity_;
  std::vector<Entry> heap_;  // min-heap by count

  // Open-addressing index: position -> heap position (-1 = free), updated on
  // every heap swap so lookups stay O(probe).
  static constexpr std::int32_t kEmpty = -1;
  std::vector<std::int32_t> index_;
  std::size_t index_mask_;

  // Backlink: heap position -> index position, so a heap Swap is two O(1)
  // index writes instead of two hash probes.  A saturated sketch sifts the
  // replaced root down the whole heap on most tail offers — with probing
  // swaps that is 2·log(m) hash walks on the hot miss path.
  std::vector<std::int32_t> index_pos_of_;
};

}  // namespace cckvs

#endif  // CCKVS_TOPK_FLAT_SPACE_SAVING_H_
