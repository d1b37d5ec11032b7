// Pluggable replacement for the private L1 tail cache (cache/l1_tail.h).
//
// The repo now has two cache tiers with two very different replacement
// regimes.  The shared symmetric tier replaces WHOLESALE: an epoch
// transition installs a complete new hot set (SymmetricCache::InstallHotSet)
// decided by the rack-wide Space-Saving sketch — replacement is epoch-driven
// and collective, because membership must stay identical on every node.  The
// node-private L1 tail has no such constraint: each node evicts locally, one
// slot at a time, and the interesting question is WHICH slot — so the L1
// makes the per-slot decision pluggable behind this interface and ships the
// three classic policies (LRU, CLOCK, LFU) for ablation
// (bench/abl_design_choices.cpp section (e)).
//
// The contract is slot-based, not key-based: the cache owns the key->slot
// mapping and tells the policy about slot lifecycle events; the policy only
// ranks slots.  Every implementation is fixed-capacity, allocation-free
// after construction (the L1 runs inside the alloc_assert audit), and
// deterministic: the same event sequence always evicts the same slots.

#ifndef CCKVS_CACHE_REPLACEMENT_H_
#define CCKVS_CACHE_REPLACEMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cckvs {

// Which replacement policy the L1 tail runs (the bench and example
// --l1-policy= flag).
enum class L1Policy : std::uint8_t {
  kLru = 0,
  kClock = 1,
  kLfu = 2,
};

inline const char* ToString(L1Policy p) {
  switch (p) {
    case L1Policy::kLru:
      return "lru";
    case L1Policy::kClock:
      return "clock";
    case L1Policy::kLfu:
      return "lfu";
  }
  return "?";
}

bool ParseL1Policy(const std::string& name, L1Policy* out);

// Slot-ranking strategy.  The cache guarantees: OnInsert(s) only for a free
// slot s; OnAccess/OnErase(s) only for a live slot; Victim() only when every
// slot is live, and the returned slot is erased (OnErase follows).
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  virtual void OnInsert(std::size_t slot) = 0;
  virtual void OnAccess(std::size_t slot) = 0;
  virtual void OnErase(std::size_t slot) = 0;
  virtual std::size_t Victim() = 0;
  virtual const char* name() const = 0;
};

// Exact recency order: doubly-linked list over slot indices (array prev/next,
// no nodes allocated).  Victim is the least recently touched slot.
class LruPolicy final : public ReplacementPolicy {
 public:
  explicit LruPolicy(std::size_t capacity);

  void OnInsert(std::size_t slot) override;
  void OnAccess(std::size_t slot) override;
  void OnErase(std::size_t slot) override;
  std::size_t Victim() override;
  const char* name() const override { return "lru"; }

 private:
  void Unlink(std::size_t slot);
  void PushFront(std::size_t slot);

  // head_/tail_ are capacity-valued sentinels encoded as kNil.
  static constexpr std::size_t kNil = static_cast<std::size_t>(-1);
  std::vector<std::size_t> prev_;
  std::vector<std::size_t> next_;
  std::size_t head_ = kNil;  // most recently used
  std::size_t tail_ = kNil;  // least recently used
};

// Second-chance approximation of LRU: one reference bit per slot and a
// sweeping hand.  Victim clears set bits until it finds a clear one — cheap
// OnAccess (a bit store), slightly coarser ranking.
class ClockPolicy final : public ReplacementPolicy {
 public:
  explicit ClockPolicy(std::size_t capacity);

  void OnInsert(std::size_t slot) override;
  void OnAccess(std::size_t slot) override;
  void OnErase(std::size_t slot) override;
  std::size_t Victim() override;
  const char* name() const override { return "clock"; }

 private:
  std::vector<std::uint8_t> ref_;
  std::size_t hand_ = 0;
};

// Frequency ranking: per-slot access counters, victim is the minimum count
// (lowest slot index breaks ties, keeping eviction deterministic).  Linear
// victim scan — fine at L1 sizes (hundreds to a few thousand slots), and the
// scan only runs on insert-when-full, never on hits.
class LfuPolicy final : public ReplacementPolicy {
 public:
  explicit LfuPolicy(std::size_t capacity);

  void OnInsert(std::size_t slot) override;
  void OnAccess(std::size_t slot) override;
  void OnErase(std::size_t slot) override;
  std::size_t Victim() override;
  const char* name() const override { return "lfu"; }

 private:
  std::vector<std::uint64_t> count_;
};

std::unique_ptr<ReplacementPolicy> MakeReplacementPolicy(L1Policy policy,
                                                         std::size_t capacity);

}  // namespace cckvs

#endif  // CCKVS_CACHE_REPLACEMENT_H_
