// TransportFabric: the pluggable delivery substrate under LiveTransport.
//
// Everything above this interface — SendCoalescer batching, §6.3 credit
// pools, per-peer FIFO parking, the engines, the epoch gate+barrier, the
// SC/Lin checkers — is backend-agnostic.  The fabric owns exactly the
// cross-endpoint touchpoints the in-process transport used to reach through
// shared memory for:
//
//   * Deliver / Drain / Wait   — move one WireBatch from src to dst, FIFO per
//                                (src, dst) lane, wake a parked consumer at
//                                most once per batch;
//   * ReturnCredits / TakeReturnedCredits — the header-only credit-update
//                                ride (an atomic add in-process, a credit
//                                frame on the wire).
//
// No fabric keeps a rack-global message count: every rack, in-process or
// ranked, detects termination with the counting protocol in
// control_messages.h, which needs only per-endpoint counters and FIFO lanes.
//
// Backends:
//
//   kInproc  — MpscChannel per node + atomic credit matrix; the original
//              single-process transport, now behind the interface.
//   kShm     — one mmap'd region: per-(src,dst) SPSC byte rings carrying
//              serialized frames, process-shared doorbells and credit
//              matrix in the region.  Same-host multi-process.
//   kSocket  — UDS or TCP stream per peer pair carrying length-prefixed
//              frames; a receive thread demuxes into local inboxes.  Ranked
//              mode spans hosts.
//
// A fabric is "all-in-one" (rank < 0: this process owns every endpoint — the
// conformance tests and classic single-process racks) or "ranked" (rank >= 0:
// this process owns exactly one endpoint and the fabric reaches the rest).
// FIFO per lane and wakeup-once-per-batch are contract, not implementation
// detail: tests/transport_conformance_test.cc executes them against every
// backend.

#ifndef CCKVS_RUNTIME_FABRIC_H_
#define CCKVS_RUNTIME_FABRIC_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/runtime/coalescer.h"

namespace cckvs {

enum class TransportKind : std::uint8_t {
  kInproc = 0,  // MPSC channels, single process
  kShm,         // shared-memory SPSC rings, same-host multi-process
  kSocket,      // UDS/TCP streams, multi-host
};

inline const char* ToString(TransportKind k) {
  switch (k) {
    case TransportKind::kInproc:
      return "inproc";
    case TransportKind::kShm:
      return "shm";
    case TransportKind::kSocket:
      return "socket";
  }
  return "?";
}

// Parses "inproc" | "shm" | "socket"; returns false on anything else.
inline bool ParseTransportKind(const std::string& s, TransportKind* out) {
  if (s == "inproc") {
    *out = TransportKind::kInproc;
  } else if (s == "shm") {
    *out = TransportKind::kShm;
  } else if (s == "socket") {
    *out = TransportKind::kSocket;
  } else {
    return false;
  }
  return true;
}

struct TransportOptions {
  TransportKind kind = TransportKind::kInproc;
  // < 0: all-in-one (this process owns every endpoint).  >= 0: ranked — this
  // process owns endpoint `rank` only; peers live in other processes.
  int rank = -1;
  // kShm: POSIX shm object name ("/cckvs_<id>").  Rank 0 (or the all-in-one
  // process) creates and initializes; other ranks attach and wait for the
  // ready flag.
  std::string shm_name = "/cckvs_rack";
  std::size_t shm_ring_bytes = 1 << 20;  // per (src,dst) lane
  // kSocket: UDS by default — rank r listens at "<socket_path_base>.<r>".
  // When tcp_port_base > 0, TCP on 127.0.0.1:(tcp_port_base + r) instead.
  std::string socket_path_base = "/tmp/cckvs_rack";
  int tcp_port_base = 0;
  int connect_timeout_ms = 10000;
};

struct FabricConfig {
  int num_nodes = 0;
  // Inbox bound, in batches (inproc/socket local inboxes; the shm backend's
  // bound is ring bytes instead and full_waits counts ring-full stalls).
  std::size_t channel_capacity = 4096;
};

// Per-endpoint receive-side counters, same meaning across backends:
// pushes = batches delivered into self's inbox; wakeups = deliveries that
// found the consumer parked (at most one per batch); full_waits = deliveries
// that blocked on a full inbox/ring (zero in a credit-sized healthy run).
struct FabricStats {
  std::uint64_t pushes = 0;
  std::uint64_t full_waits = 0;
  std::uint64_t wakeups = 0;
};

class TransportFabric {
 public:
  virtual ~TransportFabric() = default;

  // Delivers one batch into `to`'s inbox, preserving per-(src,dst) FIFO.
  // Called only by the owning thread of endpoint batch.src (single writer per
  // lane).  May block when the inbox/ring is full (backstop; counted).
  virtual void Deliver(NodeId to, WireBatch&& batch) = 0;

  // Moves up to `max` batches from self's inbox into *out (appended).
  // Non-blocking.  Owning thread of `self` only.
  virtual std::size_t Drain(NodeId self, std::vector<WireBatch>* out,
                            std::size_t max) = 0;

  // Sleeps until a batch lands in self's inbox or `timeout` elapses.  A
  // delivery concurrent with parking must wake the sleeper (no lost wakeup).
  virtual void Wait(NodeId self, std::chrono::microseconds timeout) = 0;

  // Credit-update ride: `self` (receiver) returns `n` broadcast credits to
  // sender `to` for the to->self direction.  Owning thread of `self` only.
  virtual void ReturnCredits(NodeId self, NodeId to, int n) = 0;

  // Harvests credits peers have returned for the self->peer direction
  // (resets the counter).  Owning thread of `self` only.
  virtual int TakeReturnedCredits(NodeId self, NodeId peer) = 0;

  virtual FabricStats stats(NodeId self) const = 0;

  // Batches queued toward `self` and not yet drained (inproc/socket: inbox
  // depth in batches; shm: lane occupancy in bytes).  A gauge for the
  // profiler thread — sampled ~1/s, never on the hot path.
  virtual std::uint64_t InboundDepth(NodeId self) const {
    (void)self;
    return 0;
  }

  // Shared free list of warm WireBatches: senders Acquire on Take, receivers
  // Recycle after Poll dispatches — the arena that makes the steady-state
  // message path allocation-free.
  WireBatchPool& batch_pool() { return batch_pool_; }

  // Pre-sizes the node threads' codec scratch (serialize/deserialize
  // buffers) to hold a `frame_bytes` encoding, so an audited window never
  // sees their first growth.  LiveTransport's prewarm path calls it before
  // any node thread starts.  Backends that move batches by value ignore it.
  virtual void ReserveScratch(std::size_t frame_bytes) { (void)frame_bytes; }

  // First transport-level fault (peer hangup mid-frame, short write, decode
  // failure), empty when healthy.  Sticky; safe from any thread.
  virtual std::string error() const { return {}; }

  // Lock-free "is error() non-empty" — cheap enough for every run-loop
  // iteration, so a faulted fabric turns into a clean exit, not a hang.
  virtual bool faulted() const { return false; }

  // Stops background machinery (rx threads, doorbell waiters) so endpoints
  // can be torn down.  Idempotent; called before destruction.
  virtual void Shutdown() {}

 private:
  WireBatchPool batch_pool_;
};

// Builds the backend named by `opts.kind`.  Blocks until the fabric is ready
// (ranked backends: all peers attached/connected).  Returns nullptr with
// *error set on failure — connect refused past the deadline, shm create
// failure — so callers can surface a clean LiveReport error instead of
// aborting.
std::unique_ptr<TransportFabric> MakeFabric(const FabricConfig& config,
                                            const TransportOptions& opts,
                                            std::string* error);

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_FABRIC_H_
