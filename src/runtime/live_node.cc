#include "src/runtime/live_node.h"

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "src/common/alloc_tracker.h"
#include "src/common/check.h"
#include "src/common/cpu.h"
#include "src/common/cycles.h"
#include "src/common/hash.h"
#include "src/runtime/live_rack.h"

namespace cckvs {
namespace {

// Inbound batches drained per pump before giving client ops a turn; keeps one
// flooded channel from starving the node's own sessions.  Counts batches, so
// a pump handles at most kPollBatch * coalesce_max_batch messages.
constexpr std::size_t kPollBatch = 256;

// Issued ops between the issue round's mid-round polls.  Smaller slices poll
// more often but ship more, smaller batches; docs/PERFORMANCE.md ("What a Lin
// write waits for") has the curve this value was picked from.
constexpr std::size_t kIssueSlice = 16;

}  // namespace

LiveNode::LiveNode(LiveRack* rack, NodeId id, WorkloadGenerator gen)
    : rack_(rack),
      id_(id),
      ep_(&rack->transport().endpoint(id)),
      gen_(std::move(gen)),
      core_(this, id) {
  const LiveRackParams& p = rack->params();
  quota_ = p.ops_per_node;
  ranked_ = rack->ranked();
  coordinator_ = id == 0;
  tracer_ = rack->tracer(id);
  if (tracer_ != nullptr) {
    ep_->set_tracer(tracer_);  // batch-residence spans (coalescer.h)
  }
  busy_poll_ = p.busy_poll;
  track_allocs_ = p.track_allocs;
  if (p.profile) {
    pub_ = &rack->worker_counters(id);
  }
  if (coordinator_) {
    // Sized once, so a probe round never allocates.
    round_status_.reserve(static_cast<std::size_t>(p.num_nodes));
    round_counts_.resize(static_cast<std::size_t>(p.num_nodes));
    prev_counts_.resize(static_cast<std::size_t>(p.num_nodes));
  }

  PartitionConfig pc;
  pc.buckets = p.partition_buckets;
  pc.node_id = id;
  const std::uint32_t value_bytes = p.workload.value_bytes;
  pc.synthesize = [value_bytes](Key key) { return SynthesizeValue(key, value_bytes); };
  pc.synthesize_into = [value_bytes](Key key, Value* out) {
    SynthesizeValueInto(key, value_bytes, out);
  };
  partition_ = std::make_unique<Partition>(pc);

  cache_ = std::make_unique<SymmetricCache>(p.cache_capacity);
  if (p.l1_capacity > 0) {
    l1_ = std::make_unique<L1TailCache>(p.l1_capacity, p.l1_policy,
                                        p.workload.value_bytes);
    // The sketch needs headroom over the L1 so candidates can out-count
    // residents before one is admitted.
    l1_sketch_ = std::make_unique<FlatSpaceSaving>(p.l1_capacity * 2);
    // Lin hits validate against the home shard's current timestamp; in a
    // ranked rack a remote home is only RPC-reachable, so the core admits
    // only self-homed keys under Lin.  SC needs neither: a private copy only
    // ever lags, which per-session timestamp monotonicity allows.
    l1_validate_ = p.consistency == ConsistencyModel::kLin;
  }
  if (p.consistency == ConsistencyModel::kLin) {
    engine_ = std::make_unique<LinEngine>(id, p.num_nodes, cache_.get(), ep_);
  } else {
    CCKVS_CHECK(p.consistency == ConsistencyModel::kSc);
    engine_ = std::make_unique<ScEngine>(id, p.num_nodes, cache_.get(), ep_);
  }
  engine_->PrewarmScratch(p.workload.value_bytes);

  if (p.online_topk) {
    HotSetManagerConfig hc;
    hc.self = id;
    hc.num_nodes = p.num_nodes;
    hc.coordinator = id == 0;
    hc.epoch.hot_set_size = p.cache_capacity;
    hc.epoch.requests_per_epoch = p.topk_epoch_requests;
    hc.epoch.sample_probability = p.topk_sample_probability;
    hc.epoch.seed = p.seed ^ 0x70cull;
    hc.home_of = [rack](Key key) { return rack->HomeOf(key); };
    hot_mgr_ = std::make_unique<HotSetManager>(hc, cache_.get(), engine_.get(), &core_);
  }

  core_.Attach({.cache = cache_.get(),
                .engine = engine_.get(),
                .hot_mgr = hot_mgr_.get(),
                .l1 = l1_.get(),
                .l1_sketch = l1_sketch_.get(),
                .l1_validate = l1_validate_,
                .history = p.record_history ? &history_ : nullptr});
  for (int s = 0; s < p.window_per_node; ++s) {
    core_.Acquire();
  }
  round_.resize(core_.size());
  rpc_waiting_.assign(core_.size(), 0);
  if (tracer_ != nullptr) {
    traces_.resize(core_.size());
  }
}

void LiveNode::PrefillHotSet(const std::vector<Key>& hot_keys) {
  cache_->InstallHotSet(hot_keys);
  for (const Key key : hot_keys) {
    cache_->Fill(key, SynthesizeValue(key, rack_->params().workload.value_bytes),
                 Timestamp{0, 0});
    engine_->OnFilled(key);  // warms a Lin entry
  }
  if (hot_mgr_ != nullptr && hot_mgr_->coordinator()) {
    // Keys the first epoch drops from the oracle set must settle like any
    // published eviction before they are eligible for re-admission.
    hot_mgr_->SeedPublished(hot_keys);
  }
}

SimTime LiveNode::HistoryNow() {
  SimTime t = rack_->clock_ns();
  if (t <= last_ts_) {
    t = last_ts_ + 1;
  }
  last_ts_ = t;
  return t;
}

void LiveNode::Run(StopToken stop) {
  const bool debug_state = std::getenv("CCKVS_DEBUG_STATE") != nullptr;
  // The same periodic node state feeds two sinks: the CCKVS_DEBUG_STATE
  // stderr dump (env-gated, human-readable) and — whenever tracing is armed —
  // a structured state_dump instant in the trace, so a stuck drain phase is
  // diagnosable from the trace file alone (docs/OBSERVABILITY.md).
  const bool dump_state = debug_state || tracer_ != nullptr;
  std::uint64_t last_dump_cycles = 0;
  std::uint64_t idle_spins = 0;
  // Force the rdtsc→ns calibration (a one-time ~10ms busy-wait behind a
  // function-local static) before the first op is stamped and before the
  // allocation window can open.
  CyclesPerNs();
  ns_per_cycle_q48_ = NsPerCycleQ48();
  const std::uint64_t dump_interval_cycles =
      static_cast<std::uint64_t>(2e9 * CyclesPerNs());
  while (true) {
    if (dump_state) {
      const std::uint64_t now_cycles = CycleNow();
      if (now_cycles - last_dump_cycles > dump_interval_cycles) {
        last_dump_cycles = now_cycles;
        if (tracer_ != nullptr) {
          // arg0 = ops completed; arg1 packs the four queue depths a hang
          // diagnosis needs (16 bits each: gated, parked SC, RPCs out, idle).
          const std::uint64_t a1 =
              (static_cast<std::uint64_t>(core_.gated_parked()) & 0xffff) |
              ((static_cast<std::uint64_t>(core_.credit_parked()) & 0xffff) << 16) |
              ((static_cast<std::uint64_t>(rpc_outstanding_) & 0xffff) << 32) |
              ((static_cast<std::uint64_t>(core_.idle_slots()) & 0xffff) << 48);
          tracer_->Instant(SpanKind::kStateDump, 0, 0, core_.counters().completed, a1);
        }
        if (debug_state) {
          std::fprintf(stderr,
                       "[node %d] halted=%d idle=%zu/%zu parked_sc=%zu gated=%zu "
                       "rpc_out=%zu quiesc=%d pending=%d engineq=%d "
                       "completed=%llu sent=%llu proc=%llu round=%u open=%d stat=%zu\n",
                       int{id_}, halted_, core_.idle_slots(), core_.size(),
                       core_.credit_parked(), core_.gated_parked(),
                       rpc_outstanding_,
                       LocallyQuiescent(), !ep_->NothingPending(),
                       engine_->Quiescent(),
                       static_cast<unsigned long long>(core_.counters().completed),
                       static_cast<unsigned long long>(ep_->data_sent()),
                       static_cast<unsigned long long>(ep_->data_processed()),
                       term_round_, round_open_, round_status_.size());
        }
      }
    }
    if (rack_->transport().fabric().faulted()) {
      // A fabric fault (peer hangup mid-frame, undecodable frame) cannot heal;
      // bail out so the run reports the error instead of hanging on drain.
      return;
    }
    const std::size_t processed = PumpInbound();
    core_.RetryParkedScWrites();
    // Protocol progress may have released evictions, and those can raise
    // fresh gates.
    if (core_.DriveDeferred()) {
      SyncGateSpans();
    }
    const bool gated_progress = core_.RetryGatedOps();

    bool issued = false;
    if (!halted_) {
      if (stop.StopRequested() || core_.counters().completed >= quota_) {
        halted_ = true;
      } else {
        issued = FillIdleSessions();
      }
    }
    PollAllocWindow();

    // Op boundary: everything this iteration produced that its poll steps
    // did not already ship — updates/invalidations/epoch traffic from the ops
    // above — ships now, one batch per peer.  Without a flush deadline this
    // leaves no message in an open batch past its iteration.
    ep_->FlushBatches(FlushCause::kBoundary);

    if (CheckTermination()) {
      return;  // the rack is globally quiescent: histories are sealed
    }

    PublishCounters();

    if (processed == 0 && !issued && !gated_progress) {
      if (busy_poll_) {
        // Busy-poll mode: spin on the inbound ring instead of parking.  The
        // expired-deadline poll preserves the flush policy the sleeping path
        // applies before parking (a held sub-cap batch still ships within its
        // deadline); the periodic yield keeps oversubscribed hosts — and
        // single-CPU CI — live.
        ep_->PollExpiredDeadlines();
        if (++idle_spins % 64 == 0) {
          std::this_thread::yield();
        }
        CpuRelax();
      } else {
        // Nothing to do right now.  Credit returns are silent (atomic adds),
        // so bound the sleep rather than waiting for a message that may not
        // come.
        ep_->WaitForTraffic(
            std::chrono::microseconds(LocallyQuiescent() ? 50 : 200));
      }
    }
  }
}

void LiveNode::PollAllocWindow() {
  if (!track_allocs_ || alloc_window_done_) {
    return;
  }
  if (!alloc_window_open_) {
    // Warmup: the first quarter of the quota grows every buffer, pool and
    // freelist to its steady-state capacity; only what comes after counts.
    if (!halted_ && core_.counters().completed >= quota_ / 4) {
      alloc_window_open_ = true;
      alloc::ResetThread();
      alloc::EnableThread();
    }
    return;
  }
  if (halted_) {
    alloc::DisableThread();
    hot_path_allocs_ = alloc::ThreadCount();
    alloc_window_open_ = false;
    alloc_window_done_ = true;
    if (rack_->params().alloc_assert && alloc::TrackerAvailable()) {
      CCKVS_CHECK_EQ(hot_path_allocs_, 0u);
    }
  }
}

void LiveNode::PublishCounters() {
  if (pub_ == nullptr) {
    return;
  }
  WorkerCounters& w = *pub_;
  const auto relaxed = std::memory_order_relaxed;
  const NodeCounters& c = core_.counters();
  w.ops.store(c.completed, relaxed);
  w.hits.store(c.hit_completed, relaxed);
  w.misses.store(c.miss_completed, relaxed);
  w.rpcs.store(rpcs_sent_, relaxed);
  w.msgs_sent.store(ep_->coalescer().messages_sent(), relaxed);
  w.batches_sent.store(ep_->coalescer().batches_sent(), relaxed);
  w.flush_size.store(ep_->coalescer().flushes(FlushCause::kSize), relaxed);
  w.flush_boundary.store(ep_->coalescer().flushes(FlushCause::kBoundary), relaxed);
  w.flush_idle.store(ep_->coalescer().flushes(FlushCause::kIdle), relaxed);
  w.flush_deadline.store(ep_->coalescer().flushes(FlushCause::kDeadline), relaxed);
  if (l1_ != nullptr) {
    w.l1_hits.store(c.l1_hits, relaxed);
    w.l1_invalidations.store(l1_->stats().invalidations, relaxed);
    w.l1_fills.store(l1_->stats().fills, relaxed);
  }
  w.allocs.store(track_allocs_ ? alloc::ThreadCount() : 0, relaxed);
  w.inbound_depth.store(rack_->transport().fabric().InboundDepth(id_), relaxed);
}

std::size_t LiveNode::PumpInbound() {
  const std::size_t processed = PollInbound(kPollBatch);
  ep_->FlushPending();  // credits may have come back
  if (processed != 0) {
    // What the poll produced — acks for polled invalidations, updates for
    // writes whose last ack just landed, RPC responses — ships now instead of
    // waiting out the rest of the iteration for the boundary flush.
    ep_->FlushBatches(FlushCause::kBoundary);
  }
  return processed;
}

std::size_t LiveNode::PollInbound(std::size_t max) {
  return ep_->Poll(max, [this](NodeId src, const WireBody& body) {
    if (const auto* upd = std::get_if<UpdateMsg>(&body)) {
      core_.OnUpdate(src, *upd);
    } else if (const auto* inv = std::get_if<InvalidateMsg>(&body)) {
      core_.OnInvalidate(src, *inv);
    } else if (const auto* ack = std::get_if<AckMsg>(&body)) {
      engine_->OnAck(src, *ack);
    } else if (const auto* hot = std::get_if<HotSetAnnounceMsg>(&body)) {
      DriveAnnounceTraced(*hot);  // sent only to racks that run epochs
    } else if (const auto* fill = std::get_if<FillMsg>(&body)) {
      core_.OnFill(*fill);
      if (tracer_ != nullptr) {
        tracer_->Instant(SpanKind::kFillApplied, 0, 0, fill->key, fill->epoch);
      }
    } else if (const auto* installed = std::get_if<EpochInstalledMsg>(&body)) {
      core_.OnPeerInstalled(src, installed->epoch);
      if (tracer_ != nullptr) {
        tracer_->Instant(SpanKind::kPeerInstalled, 0, 0, installed->epoch, src);
        MaybeCloseBarrier();
      }
    } else if (const auto* req = std::get_if<RpcRequest>(&body)) {
      ServeRpc(src, *req);
    } else if (const auto* resp = std::get_if<RpcResponse>(&body)) {
      OnRpcResponse(*resp);
    } else if (const auto* probe = std::get_if<TermProbeMsg>(&body)) {
      // Answer with this rank's counters *now* — after the probe itself has
      // been counted as processed (Poll increments before this handler runs
      // only for data messages; Term* are excluded on both sides).
      TermStatusMsg status;
      status.round = probe->round;
      status.rank = id_;
      status.done = LocallyQuiescent();
      status.sent = ep_->data_sent();
      status.processed = ep_->data_processed();
      ep_->SendControl(src, status);
    } else if (const auto* status = std::get_if<TermStatusMsg>(&body)) {
      if (coordinator_ && round_open_ && status->round == term_round_) {
        round_status_.push_back(*status);
      }
    } else {
      CCKVS_CHECK(std::holds_alternative<TermHaltMsg>(body));
      halt_ = true;
    }
  });
}

// --- The epoch transition's host calls (the core runs the home side) ---

void LiveNode::PublishFills(const std::vector<FillMsg>& fills) {
  for (const FillMsg& fill : fills) {
    ep_->BroadcastFill(fill);
  }
}

void LiveNode::PublishInstalled(const EpochInstalledMsg& msg) {
  ep_->BroadcastEpochInstalled(msg);
  if (tracer_ != nullptr) {
    // The install that the announce opened is done on this node: close the
    // epoch_install span, then start waiting on the rack-wide barrier.
    if (install_start_cycles_ != 0 && msg.epoch >= install_epoch_) {
      tracer_->Emit(SpanKind::kEpochInstall, 0, tracer_->NewSpanId(), 0,
                    install_start_cycles_, CycleNow(), msg.epoch,
                    hot_mgr_->deferred_evictions());
      install_start_cycles_ = 0;
    }
    barrier_start_cycles_ = CycleNow();
    barrier_epoch_ = msg.epoch;
    MaybeCloseBarrier();  // peers may already have reported in
  }
}

void LiveNode::OnGateLifted(Key key) {
  if (tracer_ == nullptr) {
    return;
  }
  const auto it = gate_spans_.find(key);
  if (it != gate_spans_.end()) {
    tracer_->Emit(SpanKind::kGateClosed, 0, tracer_->NewSpanId(), 0, it->second.first,
                  CycleNow(), key, it->second.second);
    gate_spans_.erase(it);
  }
}

void LiveNode::AnnounceHotSet(const HotSetAnnounceMsg& msg) {
  ep_->BroadcastHotSet(msg);
  DriveAnnounceTraced(msg);
}

void LiveNode::DriveAnnounceTraced(const HotSetAnnounceMsg& msg) {
  if (tracer_ != nullptr) {
    tracer_->Instant(SpanKind::kAnnounce, 0, 0, msg.epoch, msg.keys.size());
    if (install_start_cycles_ == 0 && msg.epoch > install_epoch_) {
      install_start_cycles_ = CycleNow();
      install_epoch_ = msg.epoch;
    }
  }
  core_.OnAnnounce(msg);
  SyncGateSpans();
}

void LiveNode::SyncGateSpans() {
  if (tracer_ == nullptr || hot_mgr_ == nullptr) {
    return;
  }
  // pending_clear() holds every key homed here whose eviction awaits the
  // install barrier; a key not yet in gate_spans_ was gated just now.
  const std::uint64_t now = CycleNow();
  for (const auto& [key, epoch] : hot_mgr_->pending_clear()) {
    gate_spans_.try_emplace(key, now, epoch);
  }
}

void LiveNode::MaybeCloseBarrier() {
  if (tracer_ == nullptr || hot_mgr_ == nullptr || barrier_start_cycles_ == 0) {
    return;
  }
  const int n = rack_->params().num_nodes;
  for (NodeId peer = 0; peer < static_cast<NodeId>(n); ++peer) {
    if (hot_mgr_->peer_installed_epoch(peer) < barrier_epoch_) {
      return;
    }
  }
  tracer_->Emit(SpanKind::kBarrierWait, 0, tracer_->NewSpanId(), 0,
                barrier_start_cycles_, CycleNow(), barrier_epoch_, 0);
  barrier_start_cycles_ = 0;
}

bool LiveNode::FillIdleSessions() {
  if (core_.idle_slots() == 0) {
    return false;
  }
  // Three passes, so the round's shard misses overlap instead of running one
  // after another: generate each op, hash its key and pick its home (once:
  // every later step of the op reuses both), and prefetch its home bucket;
  // read each bucket's matching slot and prefetch the record; issue.
  // Everything that decides an op's outcome or its latency — the invoke
  // stamp, history, hot-set sampling, the L1 and symmetric probes — stays per
  // op in the core's Issue and Route, so a prefetch is only a hint.
  std::size_t n = 0;
  for (std::uint32_t s = 0; s < core_.size(); ++s) {
    Core::Slot& sess = core_.slot(s);
    if (sess.idle) {
      gen_.NextInto(&sess.op);  // reuses the slot's value capacity
      sess.hash = HashKey(sess.op.key);
      sess.home = rack_->HomeOfHash(sess.hash);
      round_[n++] = RoundOp{s, PrefetchHomeBucket(sess)};
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (round_[i].home != nullptr) {
      round_[i].home->PrefetchRecord(core_.slot(round_[i].slot).hash);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    core_.Issue(round_[i].slot);
    core_.Route(round_[i].slot);
    if ((i + 1) % kIssueSlice == 0 && i + 1 < n) {
      // Poll between slices, so a peer's invalidation, ack or update waits
      // for at most one slice, not the whole round.  What makes this safe:
      //  * every flush it adds is FlushBatches(kBoundary), so
      //    coalesce_flush_deadline_us still governs held batches;
      //  * no client op is issued inside a poll — UpdateRunDemux's
      //    precondition for collapsing update runs;
      //  * the round's not-yet-issued sessions stay idle until Issue, and
      //    no inbound message can complete an idle session;
      //  * gate checks and the symmetric and L1 probes all run at Route
      //    time, so an announce or fill polled mid-round is honoured;
      //  * a mid-round TermProbeMsg cannot report done: LocallyQuiescent()
      //    requires halted_, and the round runs only while !halted_.
      PumpInbound();
    }
  }
  return n != 0;
}

const Partition* LiveNode::PrefetchHomeBucket(const Core::Slot& sess) {
  if (ranked_ && sess.home != id_) {
    return nullptr;  // remote rank: the miss goes over RPC, no local shard
  }
  if (l1_ != nullptr && !l1_validate_ && sess.op.type == OpType::kGet &&
      l1_->Contains(sess.op.key, sess.hash)) {
    // An SC L1 hit never reads the shard, and a prefetch it does not use
    // costs it latency.  Lin L1 hits still peek the home shard, so they
    // prefetch.  Symmetric-cache hits are not filtered: gating on the probe
    // did not raise read_skew throughput (docs/PERFORMANCE.md).
    return nullptr;
  }
  const Partition& home = rack_->PartitionAt(sess.home);
  home.PrefetchBucket(sess.hash);
  return &home;
}

// --- NodeCore host hooks ---

Partition* LiveNode::ShardFor(NodeId home) {
  return ranked_ && home != id_ ? nullptr : &rack_->PartitionAt(home);
}

Partition* LiveNode::HomeShard(Key key) {
  return rack_->HomeOf(key) == id_ ? partition_.get() : nullptr;
}

LiveNode::OpTrace* LiveNode::Sampled(std::uint32_t slot) {
  return tracer_ != nullptr && traces_[slot].trace_id != 0 ? &traces_[slot] : nullptr;
}

void LiveNode::EmitChildSpan(std::uint32_t slot, SpanKind kind, std::uint64_t start,
                             std::uint64_t end) {
  const OpTrace& t = traces_[slot];
  tracer_->Emit(kind, t.trace_id, tracer_->NewSpanId(), t.op_span, start, end,
                core_.slot(slot).op.key, 0);
}

void LiveNode::OnIssue(std::uint32_t slot) {
  if (tracer_ != nullptr && tracer_->SampleNext()) {
    // Deterministic 1-in-N op sampling: this op's whole lifecycle — including
    // any RPC legs served by a remote rank — shares this trace id.
    traces_[slot].trace_id = tracer_->NewTraceId();
    traces_[slot].op_span = tracer_->NewSpanId();
  }
}

void LiveNode::OnPark(std::uint32_t slot, OpPark why) {
  if (OpTrace* t = Sampled(slot); t != nullptr && t->since(why) == 0) {
    t->since(why) = CycleNow();
  }
}

void LiveNode::OnUnpark(std::uint32_t slot, OpPark why) {
  // The op left its ring for a path that may not complete it soon (a fresh
  // RPC, an SC write, a credit park): its wait ends now.
  if (OpTrace* t = Sampled(slot); t != nullptr && t->since(why) != 0) {
    const SpanKind kind =
        why == OpPark::kCredit ? SpanKind::kCreditWait : SpanKind::kGatedWait;
    EmitChildSpan(slot, kind, t->since(why), CycleNow());
    t->since(why) = 0;
  }
}

std::uint64_t LiveNode::ShardAccessStart(std::uint32_t slot) {
  return Sampled(slot) != nullptr ? CycleNow() : 0;
}

void LiveNode::OnShardAccess(std::uint32_t slot, std::uint64_t start) {
  if (start != 0) {
    EmitChildSpan(slot,
                  core_.slot(slot).op.type == OpType::kGet ? SpanKind::kShardRead
                                                           : SpanKind::kShardWrite,
                  start, CycleNow());
  }
}

void LiveNode::OnComplete(std::uint32_t slot, const Value& /*read_value*/,
                          Timestamp /*ts*/, OpRoute route, std::uint64_t done_cycles) {
  const Core::Slot& sess = core_.slot(slot);
  if (OpTrace* t = Sampled(slot); t != nullptr) {
    if (route == OpRoute::kL1) {
      tracer_->Instant(SpanKind::kL1Hit, t->trace_id, t->op_span, sess.op.key, 0);
    }
    if (t->park_cycles != 0) {
      EmitChildSpan(slot, SpanKind::kGatedWait, t->park_cycles, done_cycles);
    }
    // The root span: issue -> completion.  arg1 packs op type and route.
    tracer_->Emit(SpanKind::kOp, t->trace_id, t->op_span, 0, sess.invoke_stamp,
                  done_cycles, sess.op.key,
                  (sess.op.type == OpType::kPut ? 1u : 0u) |
                      (route == OpRoute::kCache ? 2u : 0u) |
                      (route == OpRoute::kL1 ? 4u : 0u));
    *t = OpTrace{};
  }
  // Closed loop: the next op is issued by the run loop's FillIdleSessions(),
  // never from inside a completion callback (no recursion through the engine).
}

// --- ranked (multi-process) mode ---

void LiveNode::SendMiss(std::uint32_t slot) {
  const Core::Slot& sess = core_.slot(slot);
  // Session slots are stable until the response lands.
  RpcRequest req{.op_id = slot,
                 .op = sess.op.type,
                 .key = sess.op.key,
                 .value = sess.op.type == OpType::kPut ? sess.op.value : Value{}};
  if (OpTrace* t = Sampled(slot); t != nullptr) {
    // Trace context piggybacks on the wire (wire_codec.h, append-only ABI);
    // the home rank's rpc_serve span stitches to ours through these ids.
    req.trace_id = t->trace_id;
    req.parent_span = t->op_span;
    t->rpc_span = tracer_->NewSpanId();
    t->rpc_cycles = CycleNow();
  }
  ep_->SendDirect(sess.home, WireBody{std::move(req)});
  rpc_waiting_[slot] = 1;
  ++rpc_outstanding_;
  ++rpcs_sent_;
}

void LiveNode::ServeRpc(NodeId src, const RpcRequest& req) {
  // Same shard semantics as a local miss, except the residency gate bounces
  // instead of parking: the gate clears when the requester's own cache admits
  // the key (hot-set announce in flight), which only the requester can see.
  // Parking here would deadlock a halted rack whose final hot set keeps the
  // key resident forever.  The reply completes (or re-routes) the requester's
  // session; PUT responses echo the commit timestamp.
  const std::uint64_t serve_start =
      (tracer_ != nullptr && req.trace_id != 0) ? CycleNow() : 0;
  RpcResponse resp;
  resp.op_id = req.op_id;
  resp.trace_id = req.trace_id;  // echo: response joins the requester's trace
  Value value;
  Timestamp ts;
  resp.gated = !core_.ServeShardOp(req, &value, &ts);
  if (!resp.gated) {
    resp.value = std::move(value);
    resp.ts = ts;
  }
  if (serve_start != 0) {
    // Home-side engine span: parented on the requester's op span (over the
    // wire), so the merged Chrome trace shows both halves of the miss joined
    // by trace id.  arg1 flags a residency-gate bounce.
    tracer_->Emit(SpanKind::kRpcServe, req.trace_id, tracer_->NewSpanId(),
                  req.parent_span, serve_start, CycleNow(), req.key,
                  resp.gated ? 1 : 0);
  }
  ep_->SendDirect(src, WireBody{std::move(resp)});
}

void LiveNode::OnRpcResponse(const RpcResponse& resp) {
  const std::uint32_t slot = resp.op_id;
  CCKVS_CHECK_LT(slot, core_.size());
  CCKVS_CHECK(rpc_waiting_[slot]);
  rpc_waiting_[slot] = 0;
  --rpc_outstanding_;
  if (OpTrace* t = Sampled(slot); t != nullptr) {
    // Requester-side RPC leg: send stamp -> response landing.
    tracer_->Emit(SpanKind::kRpc, t->trace_id, t->rpc_span, t->op_span, t->rpc_cycles,
                  CycleNow(), core_.slot(slot).op.key, resp.gated ? 1 : 0);
    t->rpc_span = 0;
    t->rpc_cycles = 0;
  }
  if (resp.gated) {
    // Home shard is behind the residency gate.  Park locally and re-route at
    // the next pump — Route probes the cache first, so once the announce and
    // fill land the op completes as a hit; until then it re-RPCs, paced by
    // the run loop's idle sleep.  Same retry loop the single-process miss
    // path uses, stretched across the wire.
    core_.ParkGated(slot);
    return;
  }
  const Op& op = core_.slot(slot).op;
  core_.Complete(slot, op.type == OpType::kGet ? resp.value : op.value, resp.ts,
                 OpRoute::kMiss);
}

bool LiveNode::LocallyQuiescent() const {
  // Outstanding client RPCs keep their sessions non-idle, so idle slots cover
  // rpc_outstanding_ too; gated ops bounced back by a home owe a re-route and
  // count as local work.  A deferred eviction counts too: its completion can
  // publish EpochInstalled, and the run loop retries it without any inbound
  // message.
  return halted_ && core_.idle_slots() == core_.size() && core_.credit_parked() == 0 &&
         core_.gated_parked() == 0 && ep_->NothingPending() && engine_->Quiescent() &&
         (hot_mgr_ == nullptr || !hot_mgr_->HasDeferred());
}

bool LiveNode::CheckTermination() {
  if (halt_) {
    // The coordinator certified global quiescence (or told us so): ship our
    // own halt/status messages, deadline or not, then exit.
    ep_->FlushBatches(FlushCause::kBoundary, /*hold_young=*/false);
    return true;
  }
  if (!coordinator_) {
    return false;
  }
  const int n = rack_->params().num_nodes;
  if (round_open_ && round_status_.size() == static_cast<std::size_t>(n)) {
    // Round complete: evaluate.
    bool all_done = true;
    std::uint64_t sum_sent = 0;
    std::uint64_t sum_processed = 0;
    for (const TermStatusMsg& s : round_status_) {
      round_counts_[static_cast<std::size_t>(s.rank)] = {s.sent, s.processed};
      all_done &= s.done;
      sum_sent += s.sent;
      sum_processed += s.processed;
    }
    const bool stable = prev_valid_ && round_counts_ == prev_counts_;
    round_counts_.swap(prev_counts_);
    prev_valid_ = true;
    round_open_ = false;
    round_status_.clear();
    if (stable && all_done && sum_sent == sum_processed) {
      // Two identical rounds, everyone done, no data message unaccounted for:
      // the rack is globally quiescent.  Release the peers and exit.
      for (NodeId peer = 0; peer < static_cast<NodeId>(n); ++peer) {
        if (peer != id_) {
          ep_->SendControl(peer, TermHaltMsg{term_round_});
        }
      }
      ep_->FlushBatches(FlushCause::kBoundary, /*hold_young=*/false);
      halt_ = true;
      return true;
    }
  }
  if (!round_open_ && LocallyQuiescent()) {
    const SimTime now = rack_->clock_ns();
    if (now - last_probe_ns_ > 200'000) {  // ≥200µs between rounds
      ++term_round_;
      round_open_ = true;
      last_probe_ns_ = now;
      // Seed our own status; peers answer the probe.
      TermStatusMsg self_status;
      self_status.round = term_round_;
      self_status.rank = id_;
      self_status.done = true;
      self_status.sent = ep_->data_sent();
      self_status.processed = ep_->data_processed();
      round_status_.push_back(self_status);
      for (NodeId peer = 1; peer < static_cast<NodeId>(n); ++peer) {
        ep_->SendControl(peer, TermProbeMsg{term_round_});
      }
      ep_->FlushBatches(FlushCause::kBoundary);
    }
  }
  return false;
}

}  // namespace cckvs
