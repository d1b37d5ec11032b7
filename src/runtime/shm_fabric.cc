// Shared-memory fabric implementation.  Region layout (all offsets 64-byte
// aligned, sized for num_nodes = n):
//
//   ShmHeader                      magic / ready / geometry
//   ShmDoorbell[n]                 parked flag + process-shared mutex/cond
//                                  per consumer
//   CreditCell[n*n]                credits returned to sender i by peer j
//   n*n x { RingHdr, ring_bytes }  SPSC byte ring per (src,dst) lane
//
// Each ring carries length-prefixed frames: [u32 len][serialized WireBatch].
// The producer (owning thread of src, possibly in another process) owns
// tail; the consumer (owning thread of dst) owns head; head/tail are free-
// running byte counters, so full/empty are exact and no slot is wasted.
//
// A frame is encoded and decoded in place: once the ring has room for the
// frame's exact size (WireBatchBytes), the producer writes the length prefix
// and encodes the batch straight into the ring, and the consumer decodes it
// from the ring's own bytes.  Only a body that wraps the ring's end goes
// through a per-node scratch buffer (encoded there, then copied in two
// pieces; copied out in two pieces, then decoded).  The consumer releases
// head after the decode, never before, so the producer cannot overwrite a
// frame that is still being read.  A malformed frame latches an
// "undecodable" error and is skipped: the decoder bounds every read by the
// frame length it was given (wire_codec.h).
//
// Lost-wakeup argument (Dekker's pattern, no lock on the busy path): the
// producer publishes tail, issues a seq_cst fence, then reads the consumer's
// atomic `parked`.  The consumer stores `parked` = 1 (under its doorbell
// mutex), issues a seq_cst fence, then re-checks every lane before sleeping.
// The two fences are totally ordered, so at least one side sees the other's
// store: either the producer sees parked=1 — it then takes the mutex, which
// the consumer holds until it is inside pthread_cond_timedwait, and signals —
// or the consumer sees the new tail and never sleeps.  A producer that sees
// parked=0 touches no lock and no shared read-modify-write, so busy-poll
// consumers (which never park) cost their producers one fence and one load
// per frame.  One frame signals at most once: wakeup-once-per-batch, as the
// conformance suite demands.  The per-lane frame count behind stats().pushes
// lives in the lane header and is written only by the lane's producer.
//
// A full ring is the §6.3 backstop, not a steady state (credits bound bytes
// in flight); the producer counts one full_wait and spins with short sleeps
// until the consumer drains.

#include "src/runtime/shm_fabric.h"

#include <fcntl.h>
#include <pthread.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "src/common/check.h"
#include "src/runtime/wire_codec.h"

namespace cckvs {
namespace {

// Bumped whenever the region layout changes, so a rank built from another
// layout fails the attach check instead of misreading the region.
constexpr std::uint64_t kMagic = 0x63634b56536d3266ull;  // "ccKVSm2f"
constexpr std::size_t kAlign = 64;

struct ShmHeader {
  std::atomic<std::uint64_t> magic;
  std::atomic<std::uint32_t> ready;
  std::atomic<std::uint32_t> attached;
  std::uint32_t num_nodes;
  std::uint32_t pad;
  std::uint64_t ring_bytes;
};

struct alignas(kAlign) ShmDoorbell {
  pthread_mutex_t mu;
  pthread_cond_t cv;
  std::atomic<std::uint32_t> parked;  // written under mu, read lock-free
  std::atomic<std::uint64_t> full_waits;
  std::atomic<std::uint64_t> wakeups;
};

struct alignas(kAlign) CreditCell {
  std::atomic<int> v;
};

struct alignas(kAlign) RingHdr {
  std::atomic<std::uint64_t> head;    // consumer-owned
  std::atomic<std::uint64_t> tail;    // producer-owned
  std::atomic<std::uint64_t> frames;  // producer-owned; stats().pushes
};

// Address-free atomics are required for cross-process use.
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
static_assert(std::atomic<std::uint32_t>::is_always_lock_free);
static_assert(std::atomic<int>::is_always_lock_free);

std::size_t AlignUp(std::size_t x) { return (x + kAlign - 1) & ~(kAlign - 1); }

void CopyIn(std::uint8_t* ring, std::uint64_t cap, std::uint64_t pos,
            const std::uint8_t* src, std::uint64_t n) {
  const std::uint64_t off = pos % cap;
  const std::uint64_t first = std::min(n, cap - off);
  std::memcpy(ring + off, src, first);
  std::memcpy(ring, src + first, n - first);
}

void CopyOut(const std::uint8_t* ring, std::uint64_t cap, std::uint64_t pos,
             std::uint8_t* dst, std::uint64_t n) {
  const std::uint64_t off = pos % cap;
  const std::uint64_t first = std::min(n, cap - off);
  std::memcpy(dst, ring + off, first);
  std::memcpy(dst + first, ring, n - first);
}

std::uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

class ShmFabric final : public TransportFabric {
 public:
  ShmFabric(const FabricConfig& config, const TransportOptions& opts)
      : n_(config.num_nodes),
        ring_bytes_(opts.shm_ring_bytes),
        creator_(opts.rank <= 0),
        name_(opts.shm_name),
        tx_scratch_(static_cast<std::size_t>(config.num_nodes)),
        rx_scratch_(static_cast<std::size_t>(config.num_nodes)) {}

  ~ShmFabric() override {
    if (base_ != nullptr) {
      munmap(base_, size_);
    }
    if (fd_ >= 0) {
      close(fd_);
    }
    if (creator_ && mapped_) {
      shm_unlink(name_.c_str());
    }
  }

  bool Init(int timeout_ms, std::string* error) {
    size_ = TotalSize();
    if (creator_) {
      shm_unlink(name_.c_str());  // clear a stale region from a dead run
      fd_ = shm_open(name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
      if (fd_ < 0) {
        *error = "shm_open(create " + name_ + "): " + std::strerror(errno);
        return false;
      }
      if (ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
        *error = "ftruncate(" + name_ + "): " + std::strerror(errno);
        return false;
      }
      if (!Map(error)) {
        return false;
      }
      InitRegion();
      return true;
    }
    // Joiner: the creator may not have called shm_open yet — retry until the
    // object exists, is fully sized, and the ready flag is up.
    const std::uint64_t deadline =
        NowNs() + static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
    while (true) {
      fd_ = shm_open(name_.c_str(), O_RDWR, 0600);
      if (fd_ >= 0) {
        struct stat st;
        if (fstat(fd_, &st) == 0 && static_cast<std::size_t>(st.st_size) >= size_) {
          break;
        }
        close(fd_);
        fd_ = -1;
      }
      if (NowNs() > deadline) {
        *error = "timed out attaching shm region " + name_;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!Map(error)) {
      return false;
    }
    while (header()->ready.load(std::memory_order_acquire) == 0) {
      if (NowNs() > deadline) {
        *error = "timed out waiting for shm region " + name_ + " to become ready";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (header()->magic.load(std::memory_order_acquire) != kMagic ||
        header()->num_nodes != static_cast<std::uint32_t>(n_) ||
        header()->ring_bytes != ring_bytes_) {
      *error = "shm region " + name_ + " has mismatched geometry";
      return false;
    }
    header()->attached.fetch_add(1, std::memory_order_acq_rel);
    return true;
  }

  void Deliver(NodeId to, WireBatch&& batch) override {
    const NodeId src = batch.src;
    const std::uint64_t len = WireBatchBytes(batch);
    const std::uint64_t frame = 4 + len;
    CCKVS_CHECK_LT(frame, ring_bytes_);  // a frame must fit the lane
    RingHdr* r = ring_hdr(src, to);
    std::uint8_t* data = ring_data(src, to);
    const std::uint64_t tail = r->tail.load(std::memory_order_relaxed);
    bool counted_full = false;
    while (ring_bytes_ - (tail - r->head.load(std::memory_order_acquire)) < frame) {
      if (!counted_full) {
        counted_full = true;
        doorbell(to)->full_waits.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    std::uint8_t len_le[4];
    StoreLe(len_le, static_cast<std::uint32_t>(len));
    CopyIn(data, ring_bytes_, tail, len_le, 4);
    const std::uint64_t body = (tail + 4) % ring_bytes_;
    if (body + len <= ring_bytes_) {
      EncodeWireBatch(batch, data + body);
    } else {
      // The body wraps: encode into the per-src scratch (in all-in-one mode
      // every node thread delivers through this one fabric object, each as
      // a distinct src) and copy it in two pieces.
      Buffer& buf = tx_scratch_[src];
      buf.resize(len);
      EncodeWireBatch(batch, buf.data());
      CopyIn(data, ring_bytes_, tail + 4, buf.data(), len);
    }
    batch_pool().Recycle(std::move(batch));  // bytes are out; rewarm the slots
    // Single writer per lane: a plain load+store, not a read-modify-write.
    // Counted before the tail release, so whoever drains the frame sees it.
    r->frames.store(r->frames.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    r->tail.store(tail + frame, std::memory_order_release);
    // Dekker with Wait(): publish tail, fence, then look for a parked
    // consumer (see the header comment).
    std::atomic_thread_fence(std::memory_order_seq_cst);
    ShmDoorbell* d = doorbell(to);
    if (d->parked.load(std::memory_order_relaxed) == 0) {
      return;
    }
    pthread_mutex_lock(&d->mu);
    const bool wake = d->parked.load(std::memory_order_relaxed) != 0;
    if (wake) {
      d->wakeups.fetch_add(1, std::memory_order_relaxed);
    }
    pthread_mutex_unlock(&d->mu);
    if (wake) {
      pthread_cond_signal(&d->cv);
    }
  }

  void ReserveScratch(std::size_t frame_bytes) override {
    for (Buffer& buf : tx_scratch_) {
      buf.reserve(frame_bytes);
    }
    for (Buffer& buf : rx_scratch_) {
      buf.reserve(frame_bytes);
    }
  }

  std::size_t Drain(NodeId self, std::vector<WireBatch>* out,
                    std::size_t max) override {
    std::size_t moved = 0;
    for (int src = 0; src < n_ && moved < max; ++src) {
      if (src == self) {
        continue;
      }
      RingHdr* r = ring_hdr(static_cast<NodeId>(src), self);
      const std::uint8_t* data = ring_data(static_cast<NodeId>(src), self);
      while (moved < max) {
        const std::uint64_t head = r->head.load(std::memory_order_relaxed);
        const std::uint64_t tail = r->tail.load(std::memory_order_acquire);
        if (tail == head) {
          break;
        }
        std::uint8_t len_le[4];
        CopyOut(data, ring_bytes_, head, len_le, 4);
        const std::uint32_t len = LoadLe<std::uint32_t>(len_le);
        // tail is published frame-atomically, so a partial frame here means
        // corruption, not a race.
        CCKVS_CHECK_LE(static_cast<std::uint64_t>(len) + 4, tail - head);
        const std::uint64_t off = (head + 4) % ring_bytes_;
        const std::uint8_t* body = data + off;
        if (off + len > ring_bytes_) {
          // The body wraps: gather it into the per-self scratch (in
          // all-in-one mode every node thread drains through this one fabric
          // object concurrently, each on its own lanes).
          Buffer& scratch = rx_scratch_[self];
          scratch.resize(len);
          CopyOut(data, ring_bytes_, head + 4, scratch.data(), len);
          body = scratch.data();
        }
        WireBatch batch = batch_pool().Acquire();  // decode into warm slots
        const bool ok = TryDeserializeWireBatch(body, len, &batch);
        // Released only now: the producer may overwrite the frame once head
        // passes it, and an in-place decode reads the ring itself.
        r->head.store(head + 4 + len, std::memory_order_release);
        if (!ok) {
          SetError("shm lane " + std::to_string(src) + "->" +
                   std::to_string(static_cast<int>(self)) +
                   ": undecodable frame of " + std::to_string(len) + " bytes");
          batch_pool().Recycle(std::move(batch));
          continue;
        }
        out->push_back(std::move(batch));
        ++moved;
      }
    }
    return moved;
  }

  void Wait(NodeId self, std::chrono::microseconds timeout) override {
    ShmDoorbell* d = doorbell(self);
    timespec abs;
    clock_gettime(CLOCK_MONOTONIC, &abs);
    const std::uint64_t ns = static_cast<std::uint64_t>(abs.tv_nsec) +
                             static_cast<std::uint64_t>(timeout.count()) * 1000ull;
    abs.tv_sec += static_cast<time_t>(ns / 1'000'000'000ull);
    abs.tv_nsec = static_cast<long>(ns % 1'000'000'000ull);
    pthread_mutex_lock(&d->mu);
    d->parked.store(1, std::memory_order_relaxed);
    // Dekker with Deliver(): announce parked, fence, then re-check the lanes.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    while (!HasInbound(self)) {
      if (pthread_cond_timedwait(&d->cv, &d->mu, &abs) == ETIMEDOUT) {
        break;
      }
    }
    d->parked.store(0, std::memory_order_relaxed);
    pthread_mutex_unlock(&d->mu);
  }

  void ReturnCredits(NodeId self, NodeId to, int n) override {
    credit_cell(to, self)->v.fetch_add(n, std::memory_order_release);
  }

  int TakeReturnedCredits(NodeId self, NodeId peer) override {
    return credit_cell(self, peer)->v.exchange(0, std::memory_order_acquire);
  }

  FabricStats stats(NodeId self) const override {
    const ShmDoorbell* d = doorbell(self);
    std::uint64_t pushes = 0;
    for (int src = 0; src < n_; ++src) {
      if (src != self) {
        const RingHdr* r = ring_hdr(static_cast<NodeId>(src), self);
        pushes += r->frames.load(std::memory_order_relaxed);
      }
    }
    return FabricStats{pushes, d->full_waits.load(std::memory_order_relaxed),
                       d->wakeups.load(std::memory_order_relaxed)};
  }

  std::uint64_t InboundDepth(NodeId self) const override {
    // Undrained BYTES across self's inbound lanes (the shm bound is bytes,
    // not batches).  Relaxed snapshot — profiler gauge only.
    std::uint64_t bytes = 0;
    for (int src = 0; src < n_; ++src) {
      if (src == self) {
        continue;
      }
      const RingHdr* r = ring_hdr(static_cast<NodeId>(src), self);
      bytes += r->tail.load(std::memory_order_relaxed) -
               r->head.load(std::memory_order_relaxed);
    }
    return bytes;
  }

  std::string error() const override {
    std::lock_guard<std::mutex> lock(error_mu_);
    return error_;
  }

  bool faulted() const override {
    return faulted_.load(std::memory_order_acquire);
  }

 private:
  // --- layout ---
  std::size_t HeaderOff() const { return 0; }
  std::size_t DoorbellOff() const { return AlignUp(sizeof(ShmHeader)); }
  std::size_t CreditOff() const {
    return DoorbellOff() + static_cast<std::size_t>(n_) * sizeof(ShmDoorbell);
  }
  std::size_t RingsOff() const {
    return AlignUp(CreditOff() +
                   static_cast<std::size_t>(n_) * n_ * sizeof(CreditCell));
  }
  std::size_t RingStride() const {
    return AlignUp(sizeof(RingHdr) + ring_bytes_);
  }
  std::size_t TotalSize() const {
    return RingsOff() + static_cast<std::size_t>(n_) * n_ * RingStride();
  }

  ShmHeader* header() const { return reinterpret_cast<ShmHeader*>(base_); }
  ShmDoorbell* doorbell(NodeId id) const {
    return reinterpret_cast<ShmDoorbell*>(base_ + DoorbellOff()) + id;
  }
  CreditCell* credit_cell(NodeId sender, NodeId returner) const {
    return reinterpret_cast<CreditCell*>(base_ + CreditOff()) +
           static_cast<std::size_t>(sender) * n_ + returner;
  }
  std::uint8_t* LaneBase(NodeId src, NodeId dst) const {
    return base_ + RingsOff() +
           (static_cast<std::size_t>(src) * n_ + dst) * RingStride();
  }
  RingHdr* ring_hdr(NodeId src, NodeId dst) const {
    return reinterpret_cast<RingHdr*>(LaneBase(src, dst));
  }
  std::uint8_t* ring_data(NodeId src, NodeId dst) const {
    return LaneBase(src, dst) + AlignUp(sizeof(RingHdr));
  }

  bool HasInbound(NodeId self) const {
    for (int src = 0; src < n_; ++src) {
      if (src == self) {
        continue;
      }
      const RingHdr* r = ring_hdr(static_cast<NodeId>(src), self);
      if (r->tail.load(std::memory_order_acquire) !=
          r->head.load(std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  bool Map(std::string* error) {
    void* p = mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
    if (p == MAP_FAILED) {
      *error = "mmap(" + name_ + "): " + std::strerror(errno);
      return false;
    }
    base_ = static_cast<std::uint8_t*>(p);
    mapped_ = true;
    return true;
  }

  void InitRegion() {
    std::memset(base_, 0, size_);
    ShmHeader* h = header();
    h->num_nodes = static_cast<std::uint32_t>(n_);
    h->ring_bytes = ring_bytes_;
    pthread_mutexattr_t ma;
    pthread_mutexattr_init(&ma);
    pthread_mutexattr_setpshared(&ma, PTHREAD_PROCESS_SHARED);
    pthread_condattr_t ca;
    pthread_condattr_init(&ca);
    pthread_condattr_setpshared(&ca, PTHREAD_PROCESS_SHARED);
    pthread_condattr_setclock(&ca, CLOCK_MONOTONIC);
    for (int i = 0; i < n_; ++i) {
      ShmDoorbell* d = doorbell(static_cast<NodeId>(i));
      pthread_mutex_init(&d->mu, &ma);
      pthread_cond_init(&d->cv, &ca);
    }
    pthread_mutexattr_destroy(&ma);
    pthread_condattr_destroy(&ca);
    // The ring_bytes/ring-stride geometry above must match on every rank;
    // joiners verify it against the header.
    h->magic.store(kMagic, std::memory_order_release);
    h->attached.store(1, std::memory_order_release);
    h->ready.store(1, std::memory_order_release);
  }

  void SetError(const std::string& e) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (error_.empty()) {
      error_ = e;
    }
    faulted_.store(true, std::memory_order_release);
  }

  const int n_;
  const std::uint64_t ring_bytes_;
  const bool creator_;
  const std::string name_;
  int fd_ = -1;
  std::size_t size_ = 0;
  std::uint8_t* base_ = nullptr;
  bool mapped_ = false;
  std::atomic<bool> faulted_{false};
  mutable std::mutex error_mu_;
  std::string error_;
  // Staging for frames whose body wraps the ring's end: tx indexed by src
  // (each node thread delivers only as itself), rx indexed by self (each
  // drains only its own).
  std::vector<Buffer> tx_scratch_;
  std::vector<Buffer> rx_scratch_;
};

}  // namespace

std::unique_ptr<TransportFabric> MakeShmFabric(const FabricConfig& config,
                                               const TransportOptions& opts,
                                               std::string* error) {
  auto fabric = std::make_unique<ShmFabric>(config, opts);
  if (!fabric->Init(opts.connect_timeout_ms, error)) {
    return nullptr;
  }
  return fabric;
}

}  // namespace cckvs
