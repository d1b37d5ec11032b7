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
#include "src/cckvs/rpc_messages.h"
#include "src/common/histogram.h"
#include "src/protocol/engine.h"
#include "src/runtime/control_messages.h"
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

class LiveNode final : private HotSetHost {
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

  // --- post-join introspection (owning thread has exited) ---
  struct Counters {
    std::uint64_t completed = 0;
    std::uint64_t hit_completed = 0;
    std::uint64_t miss_completed = 0;
    std::uint64_t l1_hits = 0;       // ops served from the private L1 tail
    std::uint64_t sc_credit_stalls = 0;
    std::uint64_t gate_retries = 0;  // shard ops parked on the residency gate
    std::uint64_t rpcs_sent = 0;     // ranked mode: remote-home misses over RPC
  };
  const Counters& counters() const { return counters_; }
  // Operator-new count inside the steady-state measurement window (0 when
  // params.track_allocs is off or the tracker is compiled out; see
  // common/alloc_tracker.h).
  std::uint64_t hot_path_allocs() const { return hot_path_allocs_; }
  const Histogram& latency() const { return latency_; }
  const std::vector<HistoryOp>& history_ops() const { return history_; }
  const SymmetricCache& cache() const { return *cache_; }
  // Private L1 tail, or nullptr when params.l1_capacity == 0.
  const L1TailCache* l1() const { return l1_.get(); }
  const CoherenceEngine& engine() const { return *engine_; }
  const HotSetManager* hot_set_manager() const { return hot_mgr_.get(); }

 private:
  // How an op completed: the shard/RPC miss path, the shared symmetric cache,
  // or the node-private L1 tail.  kCache and kL1 both count as hierarchy hits.
  enum class Route : std::uint8_t { kMiss, kCache, kL1 };

  struct Session {
    Op op;
    // Derived once per op, when FillIdleSessions generates it: every shard,
    // L1, sketch and RPC step of the op reuses them.
    std::uint64_t hash = 0;  // HashKey(op.key)
    NodeId home = 0;         // the rack's home node of op.key
    SimTime invoke = 0;               // history clock (record_history runs)
    std::uint64_t invoke_cycles = 0;  // rdtsc stamp; feeds the latency histogram
    SessionId id = 0;
    bool idle = true;
    // --- tracing context (runtime/tracing.h; all 0 when the op is unsampled) ---
    std::uint64_t trace_id = 0;
    std::uint64_t op_span = 0;            // root span; completes in CompleteOp
    std::uint64_t rpc_span = 0;           // open requester-side RPC leg
    std::uint64_t rpc_cycles = 0;         // its send stamp
    std::uint64_t park_cycles = 0;        // first gated-park stamp (gated_wait)
    std::uint64_t credit_park_cycles = 0; // SC credit-park stamp (credit_wait)
  };

  // Fixed-capacity FIFO of parked session slots.  A session is parked at most
  // once, so capacity == session count and push never allocates — the deque
  // it replaces would allocate chunks on the hot path.
  class SlotRing {
   public:
    void Reset(std::size_t capacity) {
      slots_.assign(capacity, 0);
      head_ = tail_ = 0;
    }
    bool empty() const { return head_ == tail_; }
    std::size_t size() const { return static_cast<std::size_t>(tail_ - head_); }
    std::uint32_t front() const { return slots_[head_ % slots_.size()]; }
    void pop_front() { ++head_; }
    void push_back(std::uint32_t slot) { slots_[tail_++ % slots_.size()] = slot; }

   private:
    std::vector<std::uint32_t> slots_;
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
  };

  // One poll step: drains up to kPollBatch inbound batches, moves credit-
  // parked broadcasts into open batches, and — when the poll handled
  // anything — ships the open batches at once.  Returns the poll's count.
  std::size_t PumpInbound();
  std::size_t PollInbound(std::size_t max);
  // --- ranked (multi-process) mode: the RPC miss path ---
  // Remote-homed miss: ship the op to the home rank over the §6.1 RPC path
  // (op_id = session slot); the response completes the session.
  void SendRpc(std::uint32_t slot);
  // Serve a peer's RPC against the local shard; parks behind the residency
  // gate exactly like a local miss would.
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
  // shard lines those ops will read, then issues them in session order,
  // pumping the inbound fabric between slices of kIssueSlice ops.
  bool FillIdleSessions();
  // The shard this op's issue will read, with its home bucket prefetched; or
  // nullptr when there is nothing local worth prefetching (see the .cc).
  const Partition* PrefetchHomeBucket(const Session& sess);
  // Stamps and routes the slot's already-generated op.
  void IssueOp(std::uint32_t slot);
  // Routes the slot's already-generated op: cache path on a probe hit, else
  // the direct-shard miss path (parking on the residency gate if it is up).
  void RouteOp(std::uint32_t slot);
  void RouteMissOp(std::uint32_t slot);
  // GET fast path: serve from the private L1 tail if resident (Lin validates
  // the copy against the home shard first).  True when the op completed.
  bool TryServeFromL1(std::uint32_t slot);
  // Admission on authoritative miss reads: offer to the per-node sketch and
  // fill the L1 once the key proves locally hot (and is not globally hot).
  void MaybeAdmitToL1(const Session& sess, const Value& value, Timestamp ts);
  void StartCacheWrite(std::uint32_t slot);
  void RetryParkedScWrites();
  bool RetryGatedOps();
  void CompleteOp(std::uint32_t slot, const Value& read_value, Timestamp ts,
                  Route route);
  bool AllSessionsIdle() const { return idle_sessions_ == sessions_.size(); }
  // Strictly increasing per-thread history clock (ties would make the
  // checkers' per-session invoke sort ambiguous).
  SimTime NowTs();
  // Refreshes this node's WorkerCounters block (relaxed stores; profiler.h).
  void PublishCounters();
  // Opens/closes the steady-state allocation window (track_allocs_ runs).
  void PollAllocWindow();

  // --- hot-set subsystem (online_topk runs) ---
  // HotSetHost: the live half of the shared transition machine in topk/.
  // The manager drives write-backs, gate+fill snapshots, publication and gate
  // lifts through these; parked shard ops are retried by the run loop.
  void ApplyWriteback(const SymmetricCache::Eviction& ev) override;
  FillSnapshot GateAndSnapshot(Key key) override;
  void PublishFills(const std::vector<FillMsg>& fills) override;
  void PublishInstalled(const EpochInstalledMsg& msg) override;
  void LiftGate(Key key) override;
  void MaybeRetryDeferred();

  // --- transition timeline (runtime/tracing.h; no-ops when untraced) ---
  // DriveAnnounce with the timeline around it: an announce instant, the
  // epoch_install span open, and a gate-span sync after the manager ran.
  void DriveAnnounceTraced(const HotSetAnnounceMsg& msg);
  // Opens a gate_closed span for every newly gated key (pending_clear_ grew
  // during DriveAnnounce/DriveDeferred); LiftGate closes them.
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
  // --- node-private L1 tail (params.l1_capacity > 0) ---
  std::unique_ptr<L1TailCache> l1_;
  std::unique_ptr<FlatSpaceSaving> l1_sketch_;  // local-popularity admission
  std::uint64_t l1_offers_ = 0;                 // drives the sketch decay cadence
  bool l1_validate_ = false;          // Lin: check each hit against the home shard
  bool l1_admit_local_only_ = false;  // ranked Lin: no shard to validate against
  WorkloadGenerator gen_;

  std::vector<Session> sessions_;
  std::size_t idle_sessions_ = 0;
  // FillIdleSessions' round buffer: the slots it issues and each op's shard
  // to prefetch (nullptr: none).  Sized to the session count at construction.
  struct RoundOp {
    std::uint32_t slot = 0;
    const Partition* home = nullptr;
  };
  std::vector<RoundOp> round_;
  SlotRing parked_sc_writes_;
  SlotRing parked_gated_;  // ops waiting out an epoch barrier
  bool retrying_gated_ = false;  // re-parks during RetryGatedOps are not counted
  std::uint64_t quota_ = 0;
  bool halted_ = false;  // stopped issuing new ops
  bool record_history_ = false;  // cached: skips history-clock reads when off
  bool busy_poll_ = false;

  // --- steady-state allocation window (params.track_allocs) ---
  // Opens once warmup is over (a quarter of the quota completed), closes when
  // the node halts; everything the thread allocates in between is a hot-path
  // allocation.  See common/alloc_tracker.h and docs/PERFORMANCE.md.
  bool track_allocs_ = false;
  bool alloc_window_open_ = false;
  bool alloc_window_done_ = false;
  std::uint64_t hot_path_allocs_ = 0;

  // Reused read buffer for the miss path and cache-read path; the seqlock
  // copy-out and the synthesizer both resize into it, reusing its capacity.
  Value read_scratch_;

  // --- ranked-mode state ---
  bool ranked_ = false;
  std::vector<std::uint8_t> rpc_waiting_;  // per-slot: op is out on the wire
  std::size_t rpc_outstanding_ = 0;

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

  Counters counters_;
  Histogram latency_;
  std::vector<HistoryOp> history_;
  SimTime last_ts_ = 0;
};

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_LIVE_NODE_H_
