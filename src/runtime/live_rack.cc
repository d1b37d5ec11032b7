#include "src/runtime/live_rack.h"

#include <string>
#include <thread>
#include <utility>

#include "src/cckvs/report_util.h"
#include "src/common/check.h"
#include "src/common/cpu.h"
#include "src/common/cycles.h"
#include "src/common/hash.h"
#include "src/runtime/tracing.h"

namespace cckvs {
namespace {

LiveTransport::Config TransportConfig(const LiveRackParams& p) {
  LiveTransport::Config c;
  c.num_nodes = p.num_nodes;
  c.bcast_credits_per_peer = p.bcast_credits_per_peer;
  c.credit_update_batch = p.credit_update_batch;
  // A node's inbound channel holds at most (n-1)*credits credited broadcasts
  // plus (n-1)*window implicit-credit acks (one per outstanding invalidation
  // of at most `window` in-flight local writes), plus — in ranked mode —
  // (n-1)*window inbound RPC requests, `window` responses, and a couple of
  // termination-control messages per peer.  Size to that bound so delivery
  // never blocks; the slack absorbs nothing in theory, everything in practice.
  c.channel_capacity =
      static_cast<std::size_t>(p.num_nodes - 1) *
          static_cast<std::size_t>(p.bcast_credits_per_peer +
                                   2 * p.window_per_node + 2) +
      static_cast<std::size_t>(p.window_per_node) + 64;
  // Coalescing only lowers the push count against the same message bound
  // (every batch carries ≥ 1 message), so the capacity above stays valid.
  c.coalescing = p.coalescing;
  c.coalesce_max_batch = p.coalesce_max_batch;
  c.coalesce_flush_deadline_us = p.coalesce_flush_deadline_us;
  c.transport = p.transport;
  if (p.track_allocs) {
    // Zero-alloc audit runs must never hand a cold batch to a node inside
    // its measured window, so stock the pool to the worst-case circulating
    // count: every inbound ring full of batches, plus each endpoint's open
    // per-peer batches and poll scratch, plus the warm batches each node
    // thread's pool magazine may hold back (WireBatchPool::kMagazine).
    // Cold-start warm-up is one-time per batch slot and therefore harmless
    // in normal runs; in an audited window it reads as a (false) steady-state
    // allocation.
    const auto nodes = static_cast<std::size_t>(p.num_nodes);
    const std::size_t magazines = nodes * 2 * WireBatchPool::kMagazine;
    c.prewarm_batches = nodes * c.channel_capacity + nodes * nodes + magazines + 64;
    c.prewarm_value_bytes = p.workload.value_bytes;
  }
  return c;
}

void AddEngineStats(const EngineStats& from, EngineStats* to) {
  to->writes += from.writes;
  to->writes_completed += from.writes_completed;
  to->reads_hit += from.reads_hit;
  to->reads_blocked += from.reads_blocked;
  to->updates_applied += from.updates_applied;
  to->updates_discarded += from.updates_discarded;
  to->invalidations_applied += from.invalidations_applied;
  to->invalidations_stale += from.invalidations_stale;
  to->acks_received += from.acks_received;
  to->writes_superseded += from.writes_superseded;
  to->local_writes_queued += from.local_writes_queued;
}

}  // namespace

LiveRack::LiveRack(const LiveRackParams& params)
    : params_(params),
      transport_(TransportConfig(params)),
      partitioner_(params.num_nodes),
      worker_counters_(static_cast<std::size_t>(params.num_nodes)),
      epoch_(params.clock_epoch_ns != 0
                 ? std::chrono::steady_clock::time_point(
                       std::chrono::nanoseconds(params.clock_epoch_ns))
                 : std::chrono::steady_clock::now()) {
  CCKVS_CHECK_GE(params_.num_nodes, 2);
  CCKVS_CHECK_GE(params_.window_per_node, 1);
  CCKVS_CHECK_GE(params_.workload.value_bytes, 13u);  // MakeWriteValue floor
  CCKVS_CHECK_LT(params_.transport.rank, params_.num_nodes);

  if (!transport_.ok()) {
    return;  // Run() surfaces init_error as LiveReport::transport_error
  }

  std::vector<WorkloadGenerator> gens =
      MakePerThreadGenerators(params_.workload, params_.num_nodes, params_.seed);
  // The ground-truth (phase-0) hot set: writer tag 0 samples the unrotated
  // ranking every node agrees on.
  const std::vector<Key> hot = params_.prefill_hot_set
                                   ? gens[0].HottestKeys(params_.cache_capacity)
                                   : std::vector<Key>{};
  if (!params_.trace_path.empty()) {
    // One ring per local node, allocated up front (the ring never grows, so
    // recording stays allocation-free in the steady state).  Must exist
    // before the nodes: each LiveNode grabs its tracer in its constructor.
    tracers_.resize(static_cast<std::size_t>(params_.num_nodes));
    for (int i = 0; i < params_.num_nodes; ++i) {
      if (!IsLocal(static_cast<NodeId>(i))) {
        continue;
      }
      Tracer::Config tc;
      tc.node = static_cast<NodeId>(i);
      tc.sample_every = params_.trace_sample;
      tc.ring_capacity = params_.trace_ring_capacity;
      tracers_[static_cast<std::size_t>(i)] = std::make_unique<Tracer>(tc);
    }
  }
  nodes_.resize(static_cast<std::size_t>(params_.num_nodes));
  partitions_.resize(nodes_.size(), nullptr);
  for (int i = 0; i < params_.num_nodes; ++i) {
    if (!IsLocal(static_cast<NodeId>(i))) {
      continue;  // ranked: that node lives in another process
    }
    const auto id = static_cast<std::size_t>(i);
    nodes_[id] = std::make_unique<LiveNode>(this, static_cast<NodeId>(i),
                                            std::move(gens[id]));
    partitions_[id] = &nodes_[id]->partition();
  }

  if (params_.prefill_store) {
    // Runs before the hot-set prefill: MarkCacheResident below then finds
    // every hot record already present.
    PrefillStore();
  }

  if (params_.prefill_hot_set) {
    // Symmetric prefill: every node caches the ground-truth (phase-0) hot
    // set, so runs start in the steady state the paper measures.  Every rank
    // runs this same code, so collectively all shards get their gates raised
    // even though each process only touches its local shard.
    if (params_.online_topk) {
      // Epochs will manage membership from here on: raise each key's shard
      // residency gate now, exactly as an epoch admission would have.
      for (const Key key : hot) {
        if (IsLocal(HomeOf(key))) {
          PartitionOf(key).MarkCacheResident(key);
        }
      }
    }
    for (auto& node : nodes_) {
      if (node != nullptr) {
        node->PrefillHotSet(hot);
      }
    }
  }
}

LiveRack::~LiveRack() = default;

// Materializes the whole keyspace in its home shards (this process's shards
// only, in ranked mode) so no steady-state PUT has to insert.  Only a shard's
// own loader writes it, as only its server writes a partition in the paper,
// so the shards fill in parallel.  Each loader applies its keys in ascending
// order, which leaves buckets, overflow chains and slab refs exactly as one
// serial loop over the keyspace would.  This thread allocates every byte a
// loader writes — the slab chunks and overflow buckets, reserved from an
// exact count of each shard's keys per head bucket, and the value buffers —
// so the store lands in this thread's heap, on huge pages where malloc
// provides them, rather than in the loaders' per-thread arenas.
void LiveRack::PrefillStore() {
  const std::uint64_t keys = params_.workload.keyspace;
  const std::uint32_t vb = params_.workload.value_bytes;
  for (std::uint64_t k = 0; k < keys; ++k) {
    const std::uint64_t hash = HashKey(static_cast<Key>(k));
    if (Partition* shard = partitions_[HomeOfHash(hash)]; shard != nullptr) {
      shard->NoteLoad(hash);
    }
  }
  std::vector<NodeId> local;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (partitions_[i] != nullptr) {
      local.push_back(static_cast<NodeId>(i));
      partitions_[i]->ReserveLoad(vb);
    }
  }
  std::vector<Value> values(local.size());
  for (Value& value : values) {
    value.reserve(vb);
  }
  const auto load = [this, keys, vb](NodeId home, Value* value) {
    Partition& shard = PartitionAt(home);
    for (std::uint64_t k = 0; k < keys; ++k) {
      const Key key = static_cast<Key>(k);
      if (HomeOf(key) == home) {
        SynthesizeValueInto(key, vb, value);
        shard.Apply(key, *value, Timestamp{0, 0});
      }
    }
  };
  if (local.size() == 1) {
    load(local[0], &values[0]);  // a ranked rack: no thread to gain
    return;
  }
  std::vector<std::thread> loaders;
  loaders.reserve(local.size());
  for (std::size_t i = 0; i < local.size(); ++i) {
    loaders.emplace_back(load, local[i], &values[i]);
  }
  for (std::thread& loader : loaders) {
    loader.join();
  }
}

LiveReport LiveRack::Run() {
  CCKVS_CHECK(!ran_ && "LiveRack::Run is single-shot");
  ran_ = true;

  if (!transport_.ok()) {
    LiveReport report;
    report.transport_error = transport_.init_error();
    return report;
  }

  Profiler::Options popts;
  popts.interval_ms = params_.profile_interval_ms;
  popts.csv_path = params_.profile_csv_path;
  if (ranked() && !popts.csv_path.empty()) {
    // One file per process: ranks sharing a host must not clobber each other.
    popts.csv_path += ".rank" + std::to_string(params_.transport.rank);
  }
  Profiler profiler(popts, &worker_counters_);
  if (params_.profile) {
    profiler.Start();
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    auto& node = nodes_[i];
    if (node == nullptr) {
      continue;
    }
    threads.emplace_back([this, &node, i, token = stop_.token()] {
      if (params_.pinning) {
        // In ranked mode `i` is the global node id, so ranks sharing a host
        // land on distinct cores without coordination.
        PinCurrentThreadToCore(static_cast<int>(i));
      }
      node->Run(token);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  if (params_.profile) {
    profiler.Stop();  // takes the final partial-interval sample
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  // All node threads have exited: aggregation below reads their state without
  // synchronization concerns.
  LiveReport report;
  report.wall_seconds = wall_seconds;

  std::uint64_t hit = 0;
  std::uint64_t miss = 0;
  Histogram latency;
  for (int i = 0; i < params_.num_nodes; ++i) {
    if (nodes_[static_cast<std::size_t>(i)] == nullptr) {
      continue;  // ranked: remote ranks report from their own process
    }
    const LiveNode& node = *nodes_[static_cast<std::size_t>(i)];
    const LiveNode::Counters& c = node.counters();
    report.completed += c.completed;
    hit += c.hit_completed;
    miss += c.miss_completed;
    report.sc_credit_stalls += c.sc_credit_stalls;
    report.gate_retries += c.gate_retries;
    report.rpcs_sent += c.rpcs_sent;
    report.rack.l1_hits += c.l1_hits;
    if (const L1TailCache* l1 = node.l1(); l1 != nullptr) {
      report.rack.l1_fills += l1->stats().fills;
      report.rack.l1_invalidations += l1->stats().invalidations;
    }
    report.hot_path_allocs += node.hot_path_allocs();
    latency.Merge(node.latency());
    AddEngineStats(node.engine().stats(), &report.engine_totals);

    const LiveTransport::Endpoint& ep = transport_.endpoint(static_cast<NodeId>(i));
    report.channel_messages += ep.messages_received();
    report.channel_batches += ep.batches_received();
    report.channel_full_waits += ep.full_waits();
    report.credit_parks += ep.credit_parks();
    report.wakeups += ep.wakeups();
    report.batches_sent += ep.coalescer().batches_sent();
    report.flushes_size += ep.coalescer().flushes(FlushCause::kSize);
    report.flushes_boundary += ep.coalescer().flushes(FlushCause::kBoundary);
    report.flushes_idle += ep.coalescer().flushes(FlushCause::kIdle);
    report.flushes_deadline += ep.coalescer().flushes(FlushCause::kDeadline);
    report.updates_collapsed += ep.updates_collapsed();
    report.batch_sizes.Merge(ep.coalescer().batch_sizes());
    report.epoch_msgs += ep.epoch_msgs_sent();
    report.rack.updates_sent += ep.updates_sent();
    report.rack.invalidations_sent += ep.invalidations_sent();
    report.rack.acks_sent += ep.acks_sent();
    report.rack.credit_updates_sent += ep.credit_returns();

    const PartitionStats ps = node.partition().stats();
    report.store_read_retries += ps.read_retries;
    const SlabAllocator::Stats ss = node.partition().slab_stats();
    report.slab_live_slots += ss.live_slots;
    report.slab_arena_bytes += ss.arena_bytes;
  }

  report.rack.duration_s = wall_seconds;
  FillThroughput(report.completed, hit, miss, wall_seconds * 1e9, &report.rack);
  FillLatency(latency, &report.rack);

  if (nodes_[0] != nullptr) {
    if (const HotSetManager* coord = nodes_[0]->hot_set_manager(); coord != nullptr) {
      report.rack.epochs = coord->epochs_closed();
      report.rack.hot_set_churn = coord->last_epoch_churn();
    }
  }

  if (params_.record_history) {
    for (auto& node : nodes_) {
      if (node == nullptr) {
        continue;
      }
      for (const HistoryOp& op : node->history_ops()) {
        history_.Record(op);
      }
    }
  }

  if (params_.profile) {
    report.profiler_samples = profiler.samples();
  }

  if (!params_.trace_path.empty() && !tracers_.empty()) {
    std::vector<const Tracer*> tracers;
    for (const auto& t : tracers_) {
      if (t != nullptr) {
        report.spans_recorded += t->ring().recorded();
        report.spans_dropped += t->ring().dropped();
        tracers.push_back(t.get());
      }
    }
    std::string path = params_.trace_path;
    TraceExportOptions topts;
    if (ranked()) {
      // One file per process (the profiler CSV pattern); rank 0 of the
      // launcher merges them by line into one Chrome trace.
      path += ".rank" + std::to_string(params_.transport.rank);
      topts.pid = params_.transport.rank;
      topts.process_name = "rank " + std::to_string(params_.transport.rank);
    }
    // Anchor rdtsc stamps to the shared history clock: ranks agree on
    // clock_epoch_ns and the TSC is machine-wide, so per-rank files align.
    topts.now_cycles = CycleNow();
    topts.now_ns = clock_ns();
    std::string trace_error;
    if (!WriteChromeTrace(path, tracers, topts, &trace_error)) {
      report.trace_error = trace_error;  // diagnostic only; the run succeeded
    }
  }

  report.transport_error = transport_.fabric().error();
  return report;
}

}  // namespace cckvs
