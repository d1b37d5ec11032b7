// Configuration and result types for rack experiments (S9/S10).

#ifndef CCKVS_CCKVS_PARAMS_H_
#define CCKVS_CCKVS_PARAMS_H_

#include <cstdint>

#include "src/common/types.h"
#include "src/net/network.h"
#include "src/protocol/engine.h"
#include "src/rdma/verbs.h"
#include "src/rdma/wire_format.h"
#include "src/workload/workload.h"

namespace cckvs {

// The systems of §7.1, plus the §2.2 design-space strawman (Figure 2b).
//
//   kBaseErew     — FaSST-style NUMA abstraction, KVS partitioned per core
//                   (MICA EREW): collapses under skew on the core owning the
//                   hottest keys.
//   kBase         — same, KVS partitioned per server (CRCW): bottlenecked by
//                   the server owning the hottest shard.
//   kCentralCache — one dedicated cache node holds the hot set; every hot
//                   request in the cluster funnels to it (the prior-work
//                   approach of Figure 2b).  Trivially consistent (single
//                   copy) but processing-bound on the cache node.
//   kCcKvs        — Base plus consistent symmetric caches (this paper).
//
// "Uniform" is kBase evaluated under a uniform key distribution (alpha = 0);
// it upper-bounds every cache-less baseline.
enum class SystemKind : std::uint8_t {
  kBaseErew = 0,
  kBase,
  kCentralCache,
  kCcKvs,
};

inline const char* ToString(SystemKind k) {
  switch (k) {
    case SystemKind::kBaseErew:
      return "Base-EREW";
    case SystemKind::kBase:
      return "Base";
    case SystemKind::kCentralCache:
      return "CentralCache";
    case SystemKind::kCcKvs:
      return "ccKVS";
  }
  return "?";
}

// CPU service times, in ns.  Calibrated so that (a) a single core sustains
// ~5 M KVS ops/s, the MICA-class figure that makes Base-EREW hot-core-bound at
// ~95 MRPS on 9 nodes, and (b) CRCW systems stay network-bound, the regime the
// paper demonstrates in §8.4.
struct CpuModel {
  SimTime cache_probe_ns = 20;    // hot-set membership probe
  SimTime cache_hit_ns = 90;      // cache read (seqlock copy-out)
  SimTime cache_write_ns = 140;   // local cache write incl. protocol state
  SimTime kvs_op_ns = 130;        // MICA get/put on the home shard
  SimTime rpc_handle_ns = 50;     // incoming RPC demux before the KVS op
  SimTime resp_handle_ns = 40;    // response matching at the requester
  SimTime upd_apply_ns = 85;      // applying a consistency update
  SimTime inv_apply_ns = 55;      // applying an invalidation (+ack send)
  SimTime ack_apply_ns = 25;      // counting an acknowledgement
  SimTime credit_handle_ns = 15;  // header-only credit update
};

struct RackParams {
  SystemKind kind = SystemKind::kCcKvs;
  ConsistencyModel consistency = ConsistencyModel::kSc;  // used by kCcKvs

  int num_nodes = 9;  // §7.2: 9-server rack

  WorkloadConfig workload;  // defaults: 250M keys, alpha .99, 40B values

  // Symmetric cache: 0.1% of the dataset (§7.1).
  std::size_t cache_capacity = 250'000;
  bool prefill_hot_set = true;  // steady-state experiments pre-install the hot set

  // Thread pools (§6.2 thread partitioning).  The paper's nodes have 2x10
  // cores with 2 hyperthreads each; 16 worker ("cache") threads and 8 KVS
  // threads keep CRCW systems network-bound, as measured in §8.4.
  int cache_threads = 16;
  int kvs_threads = 8;
  // EREW KVS (per-core shards) — forced on for kBaseErew; selectable for the
  // §6.4 CRCW-vs-EREW ablation.
  bool kvs_erew = false;

  CpuModel cpu;
  NetConfig net;          // defaults: 54 Gb/s links, 26.9 Mpps switch ports
  WireFormat wire;        // defaults reproduce B_RR/B_SC/B_Lin
  NicCostModel nic;

  // Closed-loop client load: outstanding requests per node.  When
  // open_loop_mrps_per_node > 0, arrivals are Poisson at that rate instead.
  int window_per_node = 512;
  double open_loop_mrps_per_node = 0.0;

  // Flow control (§6.3/6.4).
  int rpc_credits_per_peer = 64;
  int bcast_credits_per_peer = 64;
  int credit_update_batch = 8;

  // Request coalescing (§8.5): misses destined to the same node share a packet.
  bool coalescing = false;
  int coalesce_max_batch = 16;
  SimTime coalesce_window_ns = 800;

  // §6.3 ablation: ship SC updates via switch multicast instead of the
  // software broadcast.
  bool multicast_updates = false;

  // Epoch-based online hot-set learning (§4); when false the hot set is the
  // ground-truth top-k, fixed for the run.
  bool online_topk = false;
  std::uint64_t topk_epoch_requests = 200'000;
  double topk_sample_probability = 0.05;

  // Record a full operation history for the consistency checkers (small runs).
  bool record_history = false;

  std::uint64_t seed = 1;
};

// RackReport's scalar fields, as X(type, name): the struct and the JSON view
// (ReportFields) are generated from this list.  The simulator leaves the L1
// fields at zero; only live racks have the tier.
#define CCKVS_RACK_REPORT_FIELDS(X)                                          \
  X(double, duration_s)                 /* measured (post-warmup) seconds */ \
  X(std::uint64_t, completed)           /* ops completed in that window */   \
  X(double, mrps)                       /* aggregate throughput */           \
  X(double, hit_rate)                   /* kCcKvs: L1 + symmetric hits */    \
  X(double, hit_mrps)                   /* the Figure 9 split */             \
  X(double, miss_mrps)                                                       \
  X(std::uint64_t, l1_hits)             /* live racks' node-private L1 */    \
  X(std::uint64_t, l1_fills)                                                 \
  X(std::uint64_t, l1_invalidations)                                         \
  X(double, avg_latency_us)             /* client-observed, microseconds */  \
  X(double, p50_latency_us)                                                  \
  X(double, p95_latency_us)                                                  \
  X(double, p99_latency_us)                                                  \
  X(double, tx_gbps_per_node)           /* network, per-node averages */     \
  X(double, header_gbps_per_node)       /* the Figure 13a split */           \
  X(double, payload_gbps_per_node)                                           \
  X(double, worker_utilization)         /* CPU pools, averaged over nodes */ \
  X(double, kvs_utilization)                                                 \
  X(std::uint64_t, updates_sent)        /* consistency messages sent */      \
  X(std::uint64_t, invalidations_sent)                                       \
  X(std::uint64_t, acks_sent)                                                \
  X(std::uint64_t, credit_updates_sent)                                      \
  X(std::uint64_t, epochs)              /* online_topk runs */               \
  X(std::uint64_t, hot_set_churn)

struct RackReport {
#define CCKVS_REPORT_SCALAR(type, name) type name = 0;
  CCKVS_RACK_REPORT_FIELDS(CCKVS_REPORT_SCALAR)
#undef CCKVS_REPORT_SCALAR
  double class_gbps[static_cast<int>(TrafficClass::kNumClasses)] = {};
};

}  // namespace cckvs

#endif  // CCKVS_CCKVS_PARAMS_H_
