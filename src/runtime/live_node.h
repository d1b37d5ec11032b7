// One live rack node: a real thread owning its shard, cache and engine.
//
// The node thread is the engine's single-threaded host (the contract in
// src/protocol/engine.h): every engine call — client ops and message
// deliveries — happens on this thread, interleaved by the run loop.  Other
// threads interact with the node in exactly two ways:
//
//   * posting protocol messages into its transport endpoint's channel, and
//   * reading/writing its store::Partition shard directly through the CRCW
//     seqlock path — the scale-out-ccNUMA data plane: a cache miss is served
//     by a plain load/store against the home shard, not an RPC.
//
// Client ops and the node's home side run in NodeCore (cckvs/node_core.h),
// which the simulator's RackNode shares; LiveNode is its live host.  It runs
// CPU stages inline, hands out home shards (a ranked rack's remote homes are
// RPCs instead), stamps latency with rdtsc, broadcasts an epoch's fills and
// install confirmation, and hooks spans and the ranked RPC leg onto the
// core's park, completion and gate-lift points.  Above the core it keeps
// what only a real thread has: the prefetching issue round, sliced polling,
// the RPC serve loop, termination and tracing.
//
// Client load is closed-loop: `window` sessions per node, each issuing its
// next operation as soon as the previous completes, from a per-thread
// WorkloadGenerator.  Completions are engine callbacks, so a Lin write or a
// blocked read simply leaves its session non-idle until the protocol fires.

#ifndef CCKVS_RUNTIME_LIVE_NODE_H_
#define CCKVS_RUNTIME_LIVE_NODE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cache/l1_tail.h"
#include "src/cache/symmetric_cache.h"
#include "src/cckvs/node_core.h"
#include "src/cckvs/rpc_messages.h"
#include "src/common/cycles.h"
#include "src/common/histogram.h"
#include "src/protocol/engine.h"
#include "src/runtime/control_messages.h"
#include "src/runtime/live_counters.h"
#include "src/runtime/profiler.h"
#include "src/runtime/stop.h"
#include "src/runtime/tracing.h"
#include "src/runtime/transport.h"
#include "src/store/partition.h"
#include "src/topk/flat_space_saving.h"
#include "src/topk/hot_set_manager.h"
#include "src/verify/history.h"
#include "src/workload/workload.h"

namespace cckvs {

class LiveRack;

class LiveNode final : private NodeHostHooks {
 public:
  LiveNode(LiveRack* rack, NodeId id, WorkloadGenerator gen);
  LiveNode(const LiveNode&) = delete;
  LiveNode& operator=(const LiveNode&) = delete;

  // Installs + fills the symmetric hot set (before threads start).
  void PrefillHotSet(const std::vector<Key>& hot_keys);

  // Thread body.  Issues ops until the quota (or a stop request), then drains:
  // keeps pumping messages until the termination protocol
  // (control_messages.h) proves the whole rack quiescent, so all histories
  // seal.
  void Run(StopToken stop);

  // Shard access; the CRCW seqlock path makes this safe from any thread.
  Partition& partition() { return *partition_; }
  const Partition& partition() const { return *partition_; }

  // The one read-out of the CCKVS_LIVE_COUNTERS table (runtime/live_counters.h):
  // the run loop publishes it, LiveRack::Run sums it into the report.  Call
  // it on the node thread, or once the thread has exited.
  using Counters = LiveCounters;
  Counters counters() const;

  // --- post-join introspection (owning thread has exited) ---
  const Histogram& latency() const { return core_.latency(); }  // ns
  const std::vector<HistoryOp>& history_ops() const { return history_.ops(); }
  const SymmetricCache& cache() const { return *cache_; }
  // Private L1 tail, or nullptr when params.l1_capacity == 0.
  const L1TailCache* l1() const { return l1_.get(); }
  const CoherenceEngine& engine() const { return *engine_; }
  const HotSetManager* hot_set_manager() const { return hot_mgr_.get(); }

 private:
  using Core = NodeCore<LiveNode>;

  // An op's tracing context (runtime/tracing.h); all 0 when it is unsampled.
  struct OpTrace {
    std::uint64_t trace_id = 0;
    std::uint64_t op_span = 0;             // root span; closes at completion
    std::uint64_t rpc_span = 0;            // open requester-side RPC leg
    std::uint64_t rpc_cycles = 0;          // its send stamp
    std::uint64_t park_cycles = 0;         // first gated-park stamp (gated_wait)
    std::uint64_t credit_park_cycles = 0;  // SC credit-park stamp (credit_wait)
    std::uint64_t& since(OpPark why) {
      return why == OpPark::kCredit ? credit_park_cycles : park_cycles;
    }
  };

  // --- NodeCore host (cckvs/node_core.h) ---
  friend class NodeCore<LiveNode>;
  static constexpr bool kInlineCpu = true;
  static constexpr bool kRecordsLatency = true;
  // The home's shard, reached in place; nullptr for a ranked rack's remote
  // home, whose ops go out over RPC (SendMiss).
  Partition* ShardFor(NodeId home);
  Partition* HomeShard(Key key);
  // Epoch traffic goes out on the transport's FIFO lanes.  Tracing: the
  // install closes epoch_install and opens barrier_wait; a lift closes gate_closed.
  void PublishFills(const std::vector<FillMsg>& fills);
  void PublishInstalled(const EpochInstalledMsg& msg);
  void OnGateLifted(Key key);
  // Remote-homed miss in a ranked rack: ship the op to the home rank over
  // the §6.1 RPC path (op_id = session slot); the response completes it.
  void SendMiss(std::uint32_t slot);
  bool AllPeersHaveCredit() { return ep_->AllPeersHaveCredit(); }
  // Strictly increasing per-thread history clock (ties would make the
  // checkers' per-session invoke sort ambiguous).
  SimTime HistoryNow();
  // Per-op latency comes from raw cycle stamps (rdtsc where available):
  // immune to the history clock's tie-breaking bumps and cheap enough to keep
  // on in busy-poll runs.
  std::uint64_t LatencyStamp() { return CycleNow(); }
  std::uint64_t LatencyNs(std::uint64_t from, std::uint64_t to) {
    return CyclesToNsQ48(to - from, ns_per_cycle_q48_);
  }
  void AnnounceHotSet(const HotSetAnnounceMsg& msg);
  void OnIssue(std::uint32_t slot);
  void OnPark(std::uint32_t slot, OpPark why);
  void OnUnpark(std::uint32_t slot, OpPark why);
  std::uint64_t ShardAccessStart(std::uint32_t slot);
  void OnShardAccess(std::uint32_t slot, std::uint64_t start);
  void OnComplete(std::uint32_t slot, const Value& read_value, Timestamp ts,
                  OpRoute route, std::uint64_t done_cycles);
  // The slot's trace context when its op is sampled, else nullptr.
  OpTrace* Sampled(std::uint32_t slot);
  // A span of the slot's sampled op, parented on its root span.
  void EmitChildSpan(std::uint32_t slot, SpanKind kind, std::uint64_t start,
                     std::uint64_t end);

  // One poll step: drains up to kPollBatch inbound batches, moves credit-
  // parked broadcasts into open batches, and — when the poll handled
  // anything — ships the open batches at once.  Returns the poll's count.
  std::size_t PumpInbound();
  std::size_t PollInbound(std::size_t max);
  // --- ranked (multi-process) mode: the RPC miss path ---
  // Serves a peer's RPC against the local shard.  A gated op is bounced
  // (RpcResponse::gated), and the requester parks it.
  void ServeRpc(NodeId src, const RpcRequest& req);
  void OnRpcResponse(const RpcResponse& resp);
  // True when this node can send no message until it receives one: the
  // condition the termination protocol's soundness rests on.
  bool LocallyQuiescent() const;
  // Four-counter termination (control_messages.h), every rack.  Returns true
  // when the run loop should exit: either node 0 certified global quiescence
  // twice in a row and broadcast the halt, or we received the halt.
  bool CheckTermination();
  // One issue round: generates every idle session's op, prefetches the
  // shard lines those ops will read, then issues and routes them in session
  // order, pumping the inbound fabric between slices of kIssueSlice ops.
  bool FillIdleSessions();
  // The shard this op's issue will read, with its home bucket prefetched; or
  // nullptr when there is nothing local worth prefetching (see the .cc).
  const Partition* PrefetchHomeBucket(const Core::Slot& sess);
  // Opens/closes the steady-state allocation window (track_allocs_ runs).
  void PollAllocWindow();

  // --- transition timeline (runtime/tracing.h; no-ops when untraced) ---
  // The core's OnAnnounce with the timeline around it: an announce instant,
  // the epoch_install span open, and a gate-span sync after the manager ran.
  void DriveAnnounceTraced(const HotSetAnnounceMsg& msg);
  // Opens a gate_closed span for every newly gated key (pending_clear_ grew
  // during DriveAnnounce/DriveDeferred); OnGateLifted closes them.
  void SyncGateSpans();
  // Emits the barrier_wait span once every peer's install has been seen.
  void MaybeCloseBarrier();

  LiveRack* rack_;
  NodeId id_;
  LiveTransport::Endpoint* ep_;
  WorkerCounters* pub_ = nullptr;  // this node's block in the rack's vector
  Tracer* tracer_ = nullptr;       // rack-owned; null when tracing is off

  std::unique_ptr<Partition> partition_;
  std::unique_ptr<SymmetricCache> cache_;
  std::unique_ptr<CoherenceEngine> engine_;
  std::unique_ptr<HotSetManager> hot_mgr_;  // online_topk runs only
  // --- node-private L1 tail (params.l1_capacity > 0); core_ runs its rules ---
  std::unique_ptr<L1TailCache> l1_;
  std::unique_ptr<FlatSpaceSaving> l1_sketch_;  // local-popularity admission
  bool l1_validate_ = false;  // Lin: check each hit against the home shard
  WorkloadGenerator gen_;

  Core core_;
  std::vector<OpTrace> traces_;  // per session slot; empty when untraced
  // FillIdleSessions' round buffer: the slots it issues and each op's shard
  // to prefetch (nullptr: none).  Sized to the session count at construction.
  struct RoundOp {
    std::uint32_t slot = 0;
    const Partition* home = nullptr;
  };
  std::vector<RoundOp> round_;
  std::uint64_t quota_ = 0;
  bool halted_ = false;  // stopped issuing new ops
  bool busy_poll_ = false;

  // --- steady-state allocation window (params.track_allocs) ---
  // Opens once warmup is over (a quarter of the quota completed), closes when
  // the node halts; everything the thread allocates in between is a hot-path
  // allocation.  See common/alloc_tracker.h and docs/PERFORMANCE.md.
  bool track_allocs_ = false;
  bool alloc_window_open_ = false;
  bool alloc_window_done_ = false;
  std::uint64_t hot_path_allocs_ = 0;  // the window's count once it closed

  // --- ranked-mode state ---
  bool ranked_ = false;
  std::vector<std::uint8_t> rpc_waiting_;  // per-slot: op is out on the wire
  std::size_t rpc_outstanding_ = 0;
  std::uint64_t rpcs_sent_ = 0;

  // --- termination state (control_messages.h) ---
  bool coordinator_ = false;  // node 0: runs the termination probe
  bool halt_ = false;         // TermHalt seen (or sent): exit after a flush
  // Coordinator probe-round state: statuses collected this round, and this
  // and the previous round's (sent, processed) per node for the
  // two-identical-rounds stability test.  Sized at construction.
  std::uint32_t term_round_ = 0;
  bool round_open_ = false;
  std::vector<TermStatusMsg> round_status_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> round_counts_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> prev_counts_;
  bool prev_valid_ = false;
  SimTime last_probe_ns_ = 0;

  // --- transition-timeline state (traced online_topk runs only; these maps
  // may allocate, which is fine: the zero-alloc audit runs epochs off) ---
  std::uint64_t install_start_cycles_ = 0;  // open epoch_install span
  std::uint64_t install_epoch_ = 0;
  std::uint64_t barrier_start_cycles_ = 0;  // open barrier_wait span
  std::uint64_t barrier_epoch_ = 0;
  std::unordered_map<Key, std::pair<std::uint64_t, std::uint64_t>>
      gate_spans_;  // gated key -> {raise stamp, epoch}

  History history_;  // record_history runs
  SimTime last_ts_ = 0;
  // LatencyNs's scale (NsPerCycleQ48), read by Run before its first op, so
  // the calibration's ~10 ms never lands in the rack's construction.
  std::uint64_t ns_per_cycle_q48_ = 0;
};

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_LIVE_NODE_H_
