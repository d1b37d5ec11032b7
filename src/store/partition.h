// MICA-derived key-value partition (substrate S5, §6.2).
//
// Each ccKVS node holds one shard of the dataset in a structure of this shape:
// a set-associative bucket index guarded by per-bucket seqlocks, with records in
// a slab allocator.  Under CRCW every KVS thread may touch any bucket (the
// paper's choice, "we implement seqlocks over MICA"); under EREW the cckvs layer
// instantiates one Partition per thread instead, so this class stays agnostic.
//
// Read path: lock-free seqlock copy-out with retry.  Write path: per-bucket
// writer spinlock (the odd seqlock phase).  Both sides move record bytes with
// relaxed atomic copies (src/common/atomic_copy.h), so the deliberate
// reader/writer race of the seqlock algorithm is expressed race-free and the
// live runtime's stress tests run this exact path under ThreadSanitizer.
//
// Cache-line layout: a bucket is one 64 B line and slab records start on a
// line, so a miss on a record of at most 64 B touches two lines, as long as
// the key sits in its head bucket rather than an overflow bucket: the head is
// picked from hash bits the partitioner does not route on (HashIndex,
// src/common/hash.h), so each shard's keys fill its whole index.  The access
// counters are per-thread stripes (one line each), so a Get/Put never writes
// a line another thread writes; stats() sums them — exact, but not an atomic
// snapshot across fields or threads.  PrefetchBucket/PrefetchRecord let a
// caller overlap the misses of a batch of lookups (the live node's issue
// round) before it reads them one by one.
//
// Lazy materialization: the paper's experiments address 250 M keys.  A synthetic
// default-value function lets GETs of never-written keys answer without
// materializing 250 M records; PUTs always materialize.

#ifndef CCKVS_STORE_PARTITION_H_
#define CCKVS_STORE_PARTITION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/hash.h"
#include "src/common/types.h"
#include "src/store/seqlock.h"
#include "src/store/slab.h"

namespace cckvs {

struct PartitionConfig {
  // Number of index buckets (rounded up to a power of two); each holds
  // kWays entries plus overflow chaining.
  std::size_t buckets = 1 << 16;
  // Writer id stamped on plain Put()s (normally the owning node id).
  NodeId node_id = 0;
  // Optional synthesizer: value for keys that were never written.  When set, a
  // GET miss returns Synthesize(key) with a zero timestamp instead of failing.
  std::function<Value(Key)> synthesize;
  // Capacity-reusing variant, preferred by Get when set (the live runtime's
  // zero-alloc hot path): writes the synthetic value into the caller's buffer
  // instead of returning a fresh one.  Set both or neither; internal callers
  // that need an owned Value (MarkCacheResident) use `synthesize`.
  std::function<void(Key, Value*)> synthesize_into;
};

struct PartitionStats {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t misses = 0;            // GET of absent key, no synthesizer
  std::uint64_t synthesized_gets = 0;  // GET of absent key served synthetically
  std::uint64_t read_retries = 0;      // seqlock retry loops taken
  std::uint64_t stale_applies = 0;     // Apply() rejected by timestamp
  std::uint64_t peeks = 0;             // PeekTimestamp() calls (not GETs)
};

class Partition {
 public:
  explicit Partition(const PartitionConfig& config);
  ~Partition();
  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  // Lock-free read.  On hit copies the value (and timestamp if requested) and
  // returns true.  On miss: synthesizes if configured, else returns false.
  // When `cache_resident` is non-null it receives the record's residency flag
  // (read inside the same seqlock snapshot as the value): true means the hot
  // set owns this key and the shard copy may be stale — direct readers must
  // retry until the epoch machinery clears the flag (see MarkCacheResident).
  bool Get(Key key, Value* value, Timestamp* ts = nullptr,
           bool* cache_resident = nullptr) const {
    return Get(key, HashKey(key), value, ts, cache_resident);
  }
  // Same, for a caller that already holds hash == HashKey(key); so are the
  // hashed forms below.  The live node hashes each op's key once and passes
  // that hash to every lookup the op makes.
  bool Get(Key key, std::uint64_t hash, Value* value, Timestamp* ts = nullptr,
           bool* cache_resident = nullptr) const;

  // Plain client write at the home node: monotonically bumps the record's
  // Lamport clock and stamps the configured node id.  Returns the timestamp the
  // write got.
  Timestamp Put(Key key, const Value& value);

  // Gated variant of Put for direct cross-thread writers: refuses (returns
  // false) when the record is cache-resident, so a shard write can never race
  // an authoritative cached copy.  On success *ts receives the timestamp.
  bool TryPut(Key key, const Value& value, Timestamp* ts) {
    return TryPut(key, HashKey(key), value, ts);
  }
  bool TryPut(Key key, std::uint64_t hash, const Value& value, Timestamp* ts);

  // Header-only seqlock peek: the record's current timestamp and residency
  // flag, with no value copy-out.  The L1 tail's Lin validation path uses
  // this to check a private copy against the home shard on every hit; the
  // miss semantics mirror Get (a never-written key under a configured
  // synthesizer reports the zero timestamp and returns true).  Counted in
  // stats().peeks, never in gets or synthesized_gets.
  bool PeekTimestamp(Key key, Timestamp* ts, bool* cache_resident) const {
    return PeekTimestamp(key, HashKey(key), ts, cache_resident);
  }
  bool PeekTimestamp(Key key, std::uint64_t hash, Timestamp* ts,
                     bool* cache_resident) const;

  // Memory-level-parallelism hints for a batch of lookups, given the key's
  // HashKey: PrefetchBucket pulls the key's home bucket toward this core;
  // PrefetchRecord (issued after it) reads that bucket's matching slot
  // without the seqlock and prefetches the record it names.  Neither blocks,
  // counts or changes state, and a racing writer only makes the hint
  // useless, never wrong.
  void PrefetchBucket(std::uint64_t hash) const {
    __builtin_prefetch(&buckets_[BucketOf(hash)]);
  }
  void PrefetchRecord(std::uint64_t hash) const;

  // Timestamped apply, used by write-back flushes from the symmetric cache and
  // by recovery paths: installs (value, ts) iff ts is newer than the stored
  // timestamp (or the key is absent).  Returns true when applied.  Applies are
  // protocol traffic: they bypass the residency gate and preserve the flag.
  bool Apply(Key key, const Value& value, Timestamp ts);

  // --- hot-set residency gate (home node only) ---
  //
  // The live runtime's miss path reads and writes shards directly, so during
  // an epoch transition a shard copy can transiently disagree with the caches.
  // The home node brackets a key's cached lifetime with these two calls:
  // MarkCacheResident when the key enters the hot set (atomically, under the
  // bucket's writer lock, flag the record and snapshot the fill value — any
  // concurrent TryPut lands either entirely before the snapshot or is refused
  // after it), and ClearCacheResident when the key's eviction has settled
  // rack-wide (every write-back and in-flight update has been applied).

  struct ResidentSnapshot {
    Value value;
    Timestamp ts{};
  };
  // Materializes the record if absent (via the synthesizer).
  ResidentSnapshot MarkCacheResident(Key key);
  void ClearCacheResident(Key key);

  // Bulk-load reservation, before any other use of the shard (neither call
  // is thread-safe).  Note each key a load will insert, by its HashKey; then
  // ReserveLoad maps, on the calling thread, exactly the slab chunks and
  // overflow buckets that inserting those keys into this empty shard takes.
  // A loader thread that then inserts them writes no memory it allocated
  // itself; anything not reserved it allocates as usual.
  void NoteLoad(std::uint64_t hash);
  void ReserveLoad(std::size_t value_bytes);

  // Removes the key.  Returns true if it was present.
  bool Erase(Key key);

  bool Contains(Key key) const;
  // Overflow buckets a lookup of `key` walks past its head bucket to reach
  // its record: 0 when the head bucket holds it, -1 when the key is absent.
  // A diagnostic for tests and microbenches; Contains is ChainDepth >= 0.
  int ChainDepth(Key key) const;
  std::size_t size() const { return live_records_.load(std::memory_order_relaxed); }
  // Overflow buckets allocated so far (never freed while the shard lives).
  std::size_t overflow_buckets() const {
    return overflow_count_.load(std::memory_order_relaxed);
  }

  PartitionStats stats() const;
  // Slab counters backing this shard; thread-safe snapshot.
  SlabAllocator::Stats slab_stats() const { return slab_.stats(); }

 private:
  static constexpr int kWays = 7;
  static constexpr std::uint32_t kNoOverflow = 0xffffffffu;

  // One index slot, decoded view.  The stored form is a single 64-bit word —
  // tag(16) | used(8) | cls(8) | idx(32) — so the lock-free read path can load
  // it with one relaxed atomic access; a torn/garbage word is harmless because
  // the bucket seqlock's version check discards the attempt.
  struct Slot {
    std::uint16_t tag = 0;
    std::uint8_t used = 0;
    SlabAllocator::Ref ref;
  };

  static std::uint64_t PackSlot(const Slot& s) {
    return static_cast<std::uint64_t>(s.tag) << 48 |
           static_cast<std::uint64_t>(s.used) << 40 |
           static_cast<std::uint64_t>(s.ref.cls) << 32 |
           static_cast<std::uint64_t>(s.ref.idx);
  }
  static Slot UnpackSlot(std::uint64_t raw) {
    Slot s;
    s.tag = static_cast<std::uint16_t>(raw >> 48);
    s.used = static_cast<std::uint8_t>(raw >> 40);
    s.ref.cls = static_cast<std::uint8_t>(raw >> 32);
    s.ref.idx = static_cast<std::uint32_t>(raw);
    return s;
  }

  struct AtomicSlot {
    std::atomic<std::uint64_t> raw{0};  // PackSlot form; 0 decodes to used == 0

    Slot load() const { return UnpackSlot(raw.load(std::memory_order_relaxed)); }
    void store(const Slot& s) { raw.store(PackSlot(s), std::memory_order_relaxed); }
  };

  struct alignas(64) Bucket {
    Seqlock lock;
    // Index into overflow chunks or kNoOverflow; read by the lock-free path.
    std::atomic<std::uint32_t> overflow{kNoOverflow};
    AtomicSlot slots[kWays];
  };
  static_assert(sizeof(Bucket) == 64 && alignof(Bucket) == 64,
                "a bucket is exactly one cache line");

  // Record layout inside a slab slot: header then value bytes.
  struct RecordHeader {
    Key key;
    std::uint32_t clock;
    std::uint32_t len;
    NodeId writer;
    std::uint8_t flags;  // kFlagCacheResident
  };
  static constexpr std::uint8_t kFlagCacheResident = 0x1;

  // Per-thread counter stripe: one cache line, so the counting RMWs of
  // different threads never share a line.  Threads map onto stripes
  // round-robin; two threads on one stripe stay exact (atomic adds).
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> gets{0};
    std::atomic<std::uint64_t> puts{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> synthesized{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> stale_applies{0};
    std::atomic<std::uint64_t> peeks{0};
  };
  static constexpr std::size_t kStripes = 16;
  Stripe& MyStripe() const;
  static void Bump(std::atomic<std::uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }

  static std::uint16_t TagOf(std::uint64_t hash) {
    // Never 0 so that a zeroed slot cannot alias a real tag.
    const auto tag = static_cast<std::uint16_t>(hash >> 48);
    return tag == 0 ? 1 : tag;
  }
  // The head bucket's index: HashIndex's bits, never the low bits the
  // partitioner routes on (src/common/hash.h).
  std::size_t BucketOf(std::uint64_t hash) const { return HashIndex(hash, bucket_mask_); }

  // Seqlock lookup shared by Get and PeekTimestamp: on a hit fills the
  // requested outputs and returns true; false when the key is absent.
  // Counts retries only.
  bool Lookup(Key key, std::uint64_t hash, Value* value, Timestamp* ts,
              bool* cache_resident) const;

  // Walks bucket + overflow chain; returns the slot holding `key` or nullptr.
  // Writer-side only (called under the bucket lock).
  AtomicSlot* FindSlot(Bucket& head, Key key, std::uint16_t tag);
  // Finds a free slot in the chain, extending it if needed.
  AtomicSlot* FreeSlot(Bucket& head);

  void WriteRecord(SlabAllocator::Ref ref, Key key, const Value& value, Timestamp ts,
                   std::uint8_t flags = 0);
  // Shared put body: writes (value, ts) into the slot found for `key`, or
  // materializes a fresh record.  Caller holds the bucket writer lock.
  void PutLocked(Bucket& head, Key key, std::uint16_t tag, const Value& value,
                 Timestamp ts, std::uint8_t flags);

  PartitionConfig config_;
  std::size_t bucket_mask_;
  std::vector<Bucket> buckets_;
  // Overflow buckets; grown under overflow_mu_, pointers resolved through a
  // fixed atomic array (same pattern as the slab chunks).
  static constexpr std::uint32_t kMaxOverflowChunks = 1024;
  static constexpr std::uint32_t kOverflowChunkSize = 256;
  std::vector<std::unique_ptr<Bucket[]>> overflow_owned_;
  std::atomic<Bucket*> overflow_chunks_[kMaxOverflowChunks] = {};
  std::atomic<std::uint32_t> overflow_count_{0};
  mutable std::mutex overflow_mu_;

  SlabAllocator slab_;
  std::atomic<std::size_t> live_records_{0};
  std::vector<std::uint32_t> load_heads_;  // NoteLoad's keys per head bucket

  mutable Stripe stripes_[kStripes];

  Bucket* OverflowBucket(std::uint32_t idx) const;
  // Maps one more overflow chunk.  Caller holds overflow_mu_.
  void GrowOverflowLocked();
};

}  // namespace cckvs

#endif  // CCKVS_STORE_PARTITION_H_
