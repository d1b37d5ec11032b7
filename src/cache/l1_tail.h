// Node-private L1 tail cache, layered IN FRONT of the shared symmetric tier.
//
// The symmetric cache (§4) only captures keys that are hot EVERYWHERE; a key
// hot at one node but not rack-wide pays the full remote-shard miss (or §6.1
// RPC in ranked racks) on every access.  The L1 tail catches that per-node
// tail: a small fixed-capacity, read-mostly cache of keys hot HERE, fed by a
// per-node Space-Saving sketch (topk/flat_space_saving.h) that subtracts
// global-hot-set membership so the two tiers never overlap.
//
// Consistency posture — write-through-invalidate, never write-back:
//  * Fills come only from authoritative reads (a shard seqlock read or an
//    RPC GET response), storing the exact (value, timestamp) that read
//    returned.
//  * ANY locally observable write to an L1-resident key — a local PUT, an
//    inbound consistency update/invalidation, a hot-set fill, an epoch
//    write-back — invalidates the private copy; the op falls through to the
//    existing shard/RPC path.  The L1 therefore never introduces a value the
//    shard path could not have served, and per-key SC/Lin histories are
//    unchanged (docs/ARCHITECTURE.md, "Hierarchical caching").
//
// Replacement is pluggable (cache/replacement.h): the cache owns the
// key->slot index and slot storage; the policy ranks slots.  Everything is
// preallocated — open-addressing index (backward-shift deletion, no
// tombstones), slot arrays, and Value slots reserved at value_bytes — so a
// warmed L1 runs allocation-free inside the alloc_assert audit.

#ifndef CCKVS_CACHE_L1_TAIL_H_
#define CCKVS_CACHE_L1_TAIL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cache/replacement.h"
#include "src/common/types.h"

namespace cckvs {

class L1TailCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;           // Get() served a resident key
    std::uint64_t misses = 0;         // Get() probe on a non-resident key
    std::uint64_t fills = 0;          // admissions (insert or refresh)
    std::uint64_t invalidations = 0;  // write-through drops of a resident key
    std::uint64_t evictions = 0;      // capacity evictions (policy victims)
  };

  // value_bytes sizes the per-slot Value reservation; values longer than the
  // reservation still work, they just cost an allocation on first growth.
  L1TailCache(std::size_t capacity, L1Policy policy, std::uint32_t value_bytes);

  // Read probe.  On hit copies the private value/timestamp out (into a
  // caller-owned, typically prewarmed buffer) and notifies the policy.
  bool Get(Key key, Value* value, Timestamp* ts);

  // Membership probe without stats or policy effects (tier-exclusivity
  // checks, tests).
  bool Contains(Key key) const;

  // Timestamp of a resident key without touching policy state; false when
  // absent.  Used by tests to cross-check invalidation behaviour.
  bool PeekTimestamp(Key key, Timestamp* ts) const;

  // Admits (or refreshes) `key` with an authoritative value+timestamp.
  // Evicts the policy's victim when full.
  void Fill(Key key, const Value& value, Timestamp ts);

  // Write-through invalidation: drops the private copy if resident.
  // Returns true when the key was resident (the caller counts those).
  bool Invalidate(Key key);

  // Current residents, unordered (tests; allocates — not hot path).
  std::vector<Key> Keys() const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return live_; }
  const char* policy_name() const { return policy_->name(); }
  const Stats& stats() const { return stats_; }

 private:
  static constexpr std::int32_t kEmpty = -1;

  // HashIndex's bits (src/common/hash.h), not the routed low bits: a ranked
  // Lin rack admits only self-homed keys, which all share those.
  std::size_t IndexHome(Key key) const;
  // Probe position holding `key`, or the table size when absent.
  std::size_t FindIndexPos(Key key) const;
  void IndexInsert(Key key, std::size_t slot);
  void IndexEraseAt(std::size_t pos);
  void EraseSlot(std::size_t slot);

  std::size_t capacity_;
  std::unique_ptr<ReplacementPolicy> policy_;

  // Open-addressing index: position -> slot id (kEmpty = free).  Sized to a
  // power of two >= 2x capacity, so load factor stays <= 0.5.
  std::vector<std::int32_t> index_;
  std::size_t index_mask_;

  // Slot storage; free slots are recycled LIFO through free_.
  std::vector<Key> keys_;
  std::vector<Value> values_;
  std::vector<Timestamp> ts_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;

  Stats stats_;
};

}  // namespace cckvs

#endif  // CCKVS_CACHE_L1_TAIL_H_
