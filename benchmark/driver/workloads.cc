#include "benchmark/driver/workloads.h"

#include <bit>
#include <limits>

namespace cckvs::benchmark {
namespace {

LiveRackParams Base(std::uint64_t seed) {
  LiveRackParams p;
  p.num_nodes = 4;
  p.consistency = ConsistencyModel::kSc;
  p.workload.keyspace = 1'000'000;
  p.workload.zipf_alpha = 0.99;
  p.workload.write_ratio = 0.0;
  p.workload.value_bytes = 40;
  p.cache_capacity = 1'000;
  p.window_per_node = 32;
  // Runs are time-boxed (the driver requests the stop), not quota-bound.
  p.ops_per_node = std::numeric_limits<std::uint64_t>::max();
  p.coalescing = true;
  p.busy_poll = true;
  p.prefill_store = true;
  p.seed = seed;
  return p;
}

}  // namespace

bool MakeWorkload(const std::string& name, std::uint64_t seed, LiveRackParams* out) {
  LiveRackParams p = Base(seed);
  if (name == "read_skew") {
    // Defaults above.
  } else if (name == "write_lin_shm") {
    p.consistency = ConsistencyModel::kLin;
    p.workload.write_ratio = 0.05;
    p.transport.kind = TransportKind::kShm;
  } else if (name == "node_skew_l1") {
    p.workload.keyspace = 100'000;
    p.workload.write_ratio = 0.05;
    p.workload.node_rank_stride = p.workload.keyspace / 16;
    p.l1_capacity = 4096;
    p.l1_policy = L1Policy::kLru;
  } else if (name == "epoch_drift") {
    p.workload.write_ratio = 0.01;
    p.online_topk = true;
    p.topk_epoch_requests = 50'000;
    p.workload.drift_period_ops = 200'000;
    p.workload.drift_rank_shift = 200;
  } else {
    return false;
  }
  // Size each shard's index at about four keys per bucket (seven ways), so
  // the miss path reads one bucket instead of walking overflow chains.
  p.partition_buckets =
      std::bit_ceil(p.workload.keyspace / static_cast<std::uint64_t>(p.num_nodes) / 4);
  *out = p;
  return true;
}

}  // namespace cckvs::benchmark
