// The live rack: N nodes as real std::threads on an in-process fabric.
//
// Where RackSimulation *models* a 9-node rack on a discrete-event clock,
// LiveRack *executes* the same store/cache/protocol code on real hardware
// threads: per-node store::Partition shards reached cross-thread through the
// CRCW seqlock path, per-node SymmetricCache + Sc/LinEngine driven only by
// the owning thread, and protocol traffic over bounded MPSC channels with
// credit-based backpressure (runtime/transport.h).  This is the "fast as the
// hardware allows" axis the simulator cannot measure — and the concurrency
// stress the TSan CI job exists for.
//
// A run is quota-driven: every node issues closed-loop ops until it has
// completed ops_per_node, then the rack drains to global quiescence (all
// sessions idle, all engines quiescent, fabric empty) so recorded histories
// are complete — ready for the verify/ per-key SC/Lin checkers.
//
// Quickstart:
//
//   LiveRackParams p;
//   p.consistency = ConsistencyModel::kLin;
//   p.record_history = true;
//   LiveRack rack(p);
//   LiveReport r = rack.Run();   // blocks; spawns and joins p.num_nodes threads
//   // r.rack.mrps (live Mops/s), r.rack.hit_rate, r.rack.p99_latency_us, ...
//   // rack.history().CheckPerKeyLinearizability() == ""

#ifndef CCKVS_RUNTIME_LIVE_RACK_H_
#define CCKVS_RUNTIME_LIVE_RACK_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/protocol/engine.h"
#include "src/runtime/live_node.h"
#include "src/runtime/profiler.h"
#include "src/runtime/report.h"
#include "src/runtime/stop.h"
#include "src/runtime/transport.h"
#include "src/store/partitioner.h"
#include "src/verify/history.h"
#include "src/workload/workload.h"

namespace cckvs {

struct LiveRackParams {
  int num_nodes = 4;
  ConsistencyModel consistency = ConsistencyModel::kSc;

  // Small keyspaces + small caches maximise hot-key contention, which is what
  // a live stress run is for; scale up for throughput measurements.
  WorkloadConfig workload{.keyspace = 65'536,
                          .zipf_alpha = 0.99,
                          .write_ratio = 0.05,
                          .value_bytes = 16};
  std::size_t cache_capacity = 1024;
  std::size_t partition_buckets = 1 << 12;

  // Node-private L1 tail cache (cache/l1_tail.h) in front of the symmetric
  // tier; 0 = off.  Each node admits keys hot LOCALLY but absent from the
  // global hot set (a per-node Space-Saving sketch gates admission) and
  // invalidates on any locally observable write, so SC/Lin histories are
  // unchanged.  Worth turning on when per-node popularity diverges from the
  // rack-wide ranking (workload.node_rank_stride > 0).
  std::size_t l1_capacity = 0;
  // LRU, the only policy; kept because the repository benchmark's driver
  // sets it, and goes with the next change to that benchmark.
  L1Policy l1_policy = L1Policy::kLru;

  int window_per_node = 8;              // concurrent closed-loop sessions
  std::uint64_t ops_per_node = 250'000; // issue quota per node

  // Flow control (§6.3/§6.4); credits must exceed the batch or stranded
  // partial batches could park a sender forever.
  int bcast_credits_per_peer = 64;
  int credit_update_batch = 8;

  // Transport coalescing (§8.5 on the live fabric; runtime/coalescer.h):
  // same-destination messages share one channel push, flushed by size cap,
  // op boundary, and the pre-sleep idle backstop.  Credit accounting and
  // the termination counts stay per-message either way.
  bool coalescing = false;
  int coalesce_max_batch = 16;       // mirrors RackParams::coalesce_max_batch
  // Hold sub-cap batches up to this many µs before an op-boundary flush ships
  // them (0 = flush every boundary, the pre-deadline behaviour); mirrors the
  // sim's coalesce_window_ns.  LiveReport::flushes_deadline counts the holds
  // that ran to their deadline.
  std::uint64_t coalesce_flush_deadline_us = 0;

  // Hot-set management.  With prefill_hot_set the run starts in the paper's
  // steady state (oracle top-k installed everywhere); with online_topk node 0
  // additionally runs the epoch coordinator and the rack adapts as popularity
  // drifts (workload.drift_period_ops).  Both may be on: epochs then take
  // over from the oracle seed.
  bool prefill_hot_set = true;
  bool online_topk = false;
  std::uint64_t topk_epoch_requests = 200'000;
  double topk_sample_probability = 0.05;

  bool record_history = false;  // sealed per-key history for the checkers
  std::uint64_t seed = 1;

  // --- hot-path execution mode (docs/PERFORMANCE.md) ---
  // Pin node thread i to core i (modulo the online CPU count) with a plain
  // affinity mask; pinning is not NUMA-aware.
  bool pinning = false;
  // Replace the idle park (WaitForTraffic) with a bounded spin: lowest
  // latency, one core at 100% per node.  The coalescer's deadline flush is
  // polled every spin, so held batches still ship on time.
  bool busy_poll = false;

  // --- observability (runtime/profiler.h) ---
  bool profile = false;  // background thread samples WorkerCounters
  std::uint64_t profile_interval_ms = 1000;
  std::string profile_csv_path;  // non-empty: stream samples as CSV

  // --- distributed per-op tracing (runtime/tracing.h) ---
  // Non-empty: arm a per-node Tracer (sampled spans into a fixed ring, no
  // steady-state allocation) and write a Chrome trace-event JSON here at rack
  // stop.  Ranked racks write trace_path + ".rank<N>" per process; merge with
  // MergeChromeTraces or tools/trace_report.py --merge.
  std::string trace_path;
  std::uint64_t trace_sample = 64;          // 1-in-N deterministic op sampler
  std::size_t trace_ring_capacity = 1 << 16;  // span records per node

  // Count operator-new calls on each node thread between warmup (quota/4
  // completed) and halt; the count lands in LiveReport::hot_path_allocs.
  // With alloc_assert the run CHECK-fails unless that count is zero — the
  // zero-steady-state-allocation invariant, enforceable under SC and Lin
  // with a prefilled store.  No-op under ASan/TSan, which replace operator
  // new themselves.
  bool track_allocs = false;
  bool alloc_assert = false;
  // Materialize every key of the keyspace in its home shard up front, so
  // steady-state cold-key PUTs overwrite slab slots in place instead of
  // inserting (inserts allocate index/slab growth).  Only sensible for small
  // keyspaces (the zero-alloc benchmark uses 65'536 keys).
  bool prefill_store = false;

  // Which fabric carries protocol traffic (inproc | shm | socket) and — for
  // multi-process racks — which rank this process is (transport.rank >= 0:
  // this process runs exactly one node; peers are other processes).  In
  // ranked mode remote-homed misses travel over the §6.1 RPC path instead of
  // the direct seqlock read.
  TransportOptions transport;
  // Shared history-clock epoch for ranked racks (CLOCK_MONOTONIC is machine-
  // wide, so ranks agreeing on one epoch get comparable HistoryOp times).
  // 0 = epoch at rack construction, the single-process behaviour.
  std::uint64_t clock_epoch_ns = 0;
};

class LiveRack {
 public:
  explicit LiveRack(const LiveRackParams& params);
  ~LiveRack();
  LiveRack(const LiveRack&) = delete;
  LiveRack& operator=(const LiveRack&) = delete;

  // Spawns one thread per node, runs quotas + drain, joins, and reports.
  // Call once.
  LiveReport Run();

  // Cooperative early stop (safe from any thread, e.g. a watchdog).
  void RequestStop() { stop_.RequestStop(); }

  const LiveRackParams& params() const { return params_; }
  History& history() { return history_; }  // sealed after Run()
  LiveTransport& transport() { return transport_; }
  const LiveNode& node(NodeId id) const { return *nodes_[id]; }

  // Ranked = multi-process: this process owns one node; the fabric reaches
  // the rest.  All-in-one (rank < 0) is the classic single-process rack.
  bool ranked() const { return params_.transport.rank >= 0; }
  bool IsLocal(NodeId id) const {
    return !ranked() || id == static_cast<NodeId>(params_.transport.rank);
  }
  // The lowest local node id: the rank's node, or node 0.
  NodeId FirstLocalNode() const {
    return ranked() ? static_cast<NodeId>(params_.transport.rank) : 0;
  }

  NodeId HomeOf(Key key) const { return partitioner_.HomeOf(key); }
  // The same home from the key's HashKey (the live node hashes each op once).
  NodeId HomeOfHash(std::uint64_t hash) const { return partitioner_.HomeOfHash(hash); }
  // Local shards only: in ranked mode a remote home has no Partition in this
  // process (misses go over RPC instead).
  Partition& PartitionAt(NodeId home) { return *partitions_[home]; }
  Partition& PartitionOf(Key key) { return PartitionAt(HomeOf(key)); }

  // Monotonic nanoseconds since construction; the live history clock.
  SimTime clock_ns() const {
    return static_cast<SimTime>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  // Local node `id`'s profiling counter block (valid for the rack's lifetime;
  // the node thread writes it, the profiler thread reads it).
  WorkerCounters& worker_counters(NodeId id) {
    return worker_counters_[static_cast<std::size_t>(id - FirstLocalNode())];
  }

  // Node `id`'s span ring, or nullptr when tracing is off (or the node is
  // remote).  Only the owning node thread records into it.
  Tracer* tracer(NodeId id) {
    return tracers_.empty() ? nullptr
                            : tracers_[static_cast<std::size_t>(id)].get();
  }

 private:
  // Materializes every key in its home shard (local shards only), one loader
  // thread per local shard; see the .cc.
  void PrefillStore();

  LiveRackParams params_;
  LiveTransport transport_;
  ModuloPartitioner partitioner_;
  // One per local node, from FirstLocalNode(); atomics: sized once, never moved.
  std::vector<WorkerCounters> worker_counters_;
  std::vector<std::unique_ptr<Tracer>> tracers_;  // empty when tracing is off
  std::vector<std::unique_ptr<LiveNode>> nodes_;
  std::vector<Partition*> partitions_;  // node id -> its shard; null when remote
  StopSource stop_;
  std::chrono::steady_clock::time_point epoch_;
  History history_;
  bool ran_ = false;
};

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_LIVE_RACK_H_
