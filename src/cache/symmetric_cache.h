// The symmetric cache (§4, §6.2 — substrate S6).
//
// Every node holds an identical cache of the globally hottest keys.  Because
// membership is symmetric, a node learns whether *any* node caches a key by
// probing its own cache — no directory, no sharer tracking.  Caches are
// write-back: hot writes update only the caches; the home KVS shard is updated
// when a dirty key is evicted at an epoch change.
//
// Layout fidelity: each cached object carries the paper's 8-byte metadata header
// (§6.2): consistency state (1 B, Lin only), spinlock (1 B), last writer id
// (1 B), received-ack counter (1 B), version = Lamport clock (4 B).  The extra
// transient-write bookkeeping a real node keeps in thread-private structures
// (pending/shadow values) lives beside the header, and so do the coherence
// engine's waiters on the key: the in-flight write's completion, the readers
// parked until the entry is Valid and the local writes queued behind it.  An
// entry with a waiter must not be evicted (Evict CHECKs it): the waiter could
// never complete.
//
// Table layout: a flat, open-addressed index over stable entries, so a probe
// is one multiplicative hash and a short linear scan of a compact array, and
// the probe's result is the entry itself (no second lookup to read it).
//  * The index is two parallel power-of-two arrays, keys and entry pointers (a
//    null pointer marks an empty slot).  It starts at bit_ceil(2 * capacity)
//    slots, so a full hot set fills at most half of it.  Deletion shifts the
//    rest of the probe run back; there are no tombstones.
//  * Entries live in chunks of `capacity` entries that are never moved or
//    freed while the cache lives.  A chunk's entries are constructed as they
//    are first handed out, and an evicted entry's storage goes on a free list.
//    So a CacheEntry* stays valid until its key is evicted, as it would in a
//    node-based map.
//  * Admit does not enforce capacity (deferred evictions, chained announces).
//    When membership would pass 3/4 of the index, the index doubles (every
//    key is re-placed; no entry moves), and when every chunk is in use a new
//    chunk is added.  Both happen only in Admit, i.e. at epoch time: Probe
//    and Find never allocate or move anything.
//
// Concurrency: within the rack simulation a node's engine is serialized by the
// event loop, so cache operations here are not internally locked; the CRCW
// seqlock data path the paper measures is implemented (and stress-tested) in
// store::Partition.

#ifndef CCKVS_CACHE_SYMMETRIC_CACHE_H_
#define CCKVS_CACHE_SYMMETRIC_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/types.h"

namespace cckvs {

// Consistency state of a cached object (§5.2).  kValid is the only stable
// state; kInvalid and kWrite are the two transient states of the Lin protocol.
// kFilling marks a key admitted to the hot set whose value has not arrived yet.
enum class CacheState : std::uint8_t {
  kValid = 0,
  kInvalid = 1,
  kWrite = 2,
  kFilling = 3,
};

inline const char* ToString(CacheState s) {
  switch (s) {
    case CacheState::kValid:
      return "Valid";
    case CacheState::kInvalid:
      return "Invalid";
    case CacheState::kWrite:
      return "Write";
    case CacheState::kFilling:
      return "Filling";
  }
  return "?";
}

// The 8-byte per-object metadata header of §6.2.
struct CacheEntryHeader {
  std::uint8_t state = static_cast<std::uint8_t>(CacheState::kFilling);
  std::uint8_t lock = 0;       // spinlock byte of the seqlock mechanism
  NodeId last_writer = 0;      // id of the last writer (timestamp tie-break)
  std::uint8_t ack_count = 0;  // received acknowledgements (Lin only)
  std::uint32_t version = 0;   // Lamport clock; doubles as the seqlock version
};
static_assert(sizeof(CacheEntryHeader) == 8, "header must stay 8 bytes (§6.2)");

// Completion callbacks of the coherence engines (protocol/engine.h).
using WriteDone = std::function<void()>;
using ReadDone = std::function<void(const Value&, Timestamp)>;

// A reader parked on an entry until it is Valid, or a local write queued on
// it until it can start.  Waiters are nodes of the entry's FIFO drawn from
// the engine's free list, so a reused node keeps a queued value's capacity.
struct Waiter {
  ReadDone read;    // a parked read's completion
  Value value;      // a queued write's value
  WriteDone write;  // a queued write's completion
  Waiter* next = nullptr;
};

// A FIFO of waiters linked through Waiter::next.  It owns none of them.
struct WaiterFifo {
  Waiter* head = nullptr;
  Waiter* tail = nullptr;

  bool empty() const { return head == nullptr; }
  void PushBack(Waiter* w) {
    w->next = nullptr;
    (tail == nullptr ? head : tail->next) = w;
    tail = w;
  }
  Waiter* PopFront() {
    Waiter* w = head;
    head = w->next;
    if (head == nullptr) {
      tail = nullptr;
    }
    return w;
  }
};

struct CacheEntry {
  CacheEntryHeader header;
  Value value;
  // Timestamp of `value`.  The header's Lamport clock can run ahead of the
  // installed value while the entry is Invalid/Write (the protocol has already
  // promised a newer write); write-back flushes must pair the value with the
  // timestamp it was written at, never with the promised one.
  Timestamp value_ts{};
  bool dirty = false;  // write-back: home shard is stale until eviction flush

  // --- Lin transient-write bookkeeping (engine-owned) ---
  bool write_in_flight = false;  // this node's write awaits acks
  Timestamp pending_ts{};        // timestamp of the in-flight write
  Value pending_value;           // its value
  WriteDone write_done;          // its completion
  bool superseded = false;       // a higher-ts invalidation overtook the write
  bool has_shadow = false;       // a higher-ts update arrived mid-write
  Timestamp shadow_ts{};
  Value shadow_value;

  // --- engine waiters on the key (engine-owned) ---
  WaiterFifo parked_readers;
  WaiterFifo queued_writes;

  // True while a local write is in flight or any operation waits here.
  bool HasWaiters() const {
    return write_in_flight || !parked_readers.empty() || !queued_writes.empty();
  }

  // Makes `v`, written at `t`, the entry's Valid value (dirty: write-back).
  void Install(const Value& v, Timestamp t) {
    value = v;
    value_ts = t;
    set_ts(t);
    set_state(CacheState::kValid);
    dirty = true;
  }

  Timestamp ts() const { return Timestamp{header.version, header.last_writer}; }
  void set_ts(Timestamp t) {
    header.version = t.clock;
    header.last_writer = t.writer;
  }
  CacheState state() const { return static_cast<CacheState>(header.state); }
  void set_state(CacheState s) { header.state = static_cast<std::uint8_t>(s); }
};

struct CacheStats {
  std::uint64_t probes = 0;
  std::uint64_t hits = 0;    // probe found the key in the hot set
  std::uint64_t misses = 0;  // probe did not
  std::uint64_t fills = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;
};

class SymmetricCache {
 public:
  explicit SymmetricCache(std::size_t capacity);
  ~SymmetricCache();
  SymmetricCache(const SymmetricCache&) = delete;
  SymmetricCache& operator=(const SymmetricCache&) = delete;

  // The index hash: in an index of 2^b slots, a key's home slot is the top b
  // bits of key * kHashMultiplier (mod 2^64).  Public so tests can build keys
  // that share a home slot.
  static constexpr std::uint64_t kHashMultiplier = 0x9e3779b97f4a7c15ull;

  // Hot-set membership probe (counted in stats): the key's entry, or nullptr
  // when the key is not in the hot set.
  CacheEntry* Probe(Key key) {
    CacheEntry* entry = Find(key);
    ++stats_.probes;
    stats_.hits += entry != nullptr;
    stats_.misses += entry == nullptr;
    return entry;
  }

  // Entry access; nullptr when the key is not in the hot set.  Does not count
  // as a probe.
  CacheEntry* Find(Key key) { return slot_entries_[SlotOf(key)]; }
  const CacheEntry* Find(Key key) const { return slot_entries_[SlotOf(key)]; }

  // Installs the value of a hot key (initial fill or epoch fill).
  void Fill(Key key, const Value& value, Timestamp ts);

  // A dirty entry evicted from the hot set, to be flushed to its home shard.
  struct Eviction {
    Key key;
    Value value;
    Timestamp ts;
  };

  // Replaces the hot set.  Keys leaving the set are evicted (dirty ones are
  // returned for write-back, §4); keys entering start in kFilling until
  // Fill() provides their value.  Returns the dirty evictions.
  std::vector<Eviction> InstallHotSet(const std::vector<Key>& keys);

  // Per-key membership primitives, used by the epoch machinery
  // (topk::HotSetManager) so protocol-unsafe evictions can be deferred while
  // the rest of a transition proceeds.  Admit does not enforce capacity_: a
  // node holding deferred evictions transiently exceeds it by their count.
  void Admit(Key key);  // no-op if present; enters in kFilling
  // Removes `key` (no-op if absent).  Returns true and fills *dirty_out when
  // the departing entry carried an unflushed write.  CHECK-fails when the
  // entry still has a waiter (CacheEntry::HasWaiters).
  bool Evict(Key key, Eviction* dirty_out);

  // Current membership, in index order.
  std::vector<Key> Keys() const;

  // Keys currently in kFilling state (need a fetch from their home shard).
  std::vector<Key> PendingFills() const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  const CacheStats& stats() const { return stats_; }

 private:
  std::size_t HomeSlot(Key key) const {
    return static_cast<std::size_t>((key * kHashMultiplier) >> shift_);
  }
  // The slot holding `key`, or the empty slot that ends its probe run.
  std::size_t SlotOf(Key key) const {
    std::size_t i = HomeSlot(key);
    while (slot_entries_[i] != nullptr && slot_keys_[i] != key) {
      i = (i + 1) & mask_;
    }
    return i;
  }
  // Empties slot i and shifts the rest of its probe run back over the hole.
  void EraseSlot(std::size_t i);
  // Sets up an empty index of `slots` (a power of two) slots.
  void ResetIndex(std::size_t slots);
  // Doubles the index and re-places every key; no entry moves.
  void GrowIndex();
  CacheEntry* NewEntry();
  void FreeEntry(CacheEntry* entry);

  std::size_t capacity_;
  std::size_t size_ = 0;
  // Index: slot_entries_[i] == nullptr marks an empty slot.
  std::vector<Key> slot_keys_;
  std::vector<CacheEntry*> slot_entries_;
  std::size_t mask_ = 0;
  int shift_ = 0;
  // Entry storage: raw chunks of capacity_ entries; the last chunk's first
  // chunk_used_ entries have been handed out, earlier chunks are full.
  std::vector<CacheEntry*> chunks_;
  std::size_t chunk_used_ = 0;
  std::vector<CacheEntry*> free_;
  CacheStats stats_;
};

}  // namespace cckvs

#endif  // CCKVS_CACHE_SYMMETRIC_CACHE_H_
