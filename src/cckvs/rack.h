// The ccKVS rack: nodes, baselines and the experiment driver (S9/S10, §6-§7).
//
// A RackSimulation assembles N nodes on the simulated fabric.  Each node owns
//   * a shard of the KVS (store::Partition; one per KVS thread under EREW),
//   * an instance of the symmetric cache plus its consistency engine (kCcKvs),
//   * two CPU pools — worker/"cache" threads and KVS threads (§6.2),
//   * UD queue pairs for remote requests, consistency messages and credit
//     updates (§6.4), with credit-based flow control (§6.3),
//   * closed-loop client sessions (or open-loop Poisson arrivals for latency
//     experiments), whose ops run through NodeCore (node_core.h), the op path
//     the live rack's LiveNode runs too.  The node is its simulated host: CPU
//     stages are worker-pool jobs, and every miss is a request to the home's
//     KVS pool.
//
// Run(measure, warmup) drives the load, discards the warmup window and returns
// the measured RackReport.  With record_history set, every completed client
// operation lands in a History for the per-key SC/Lin checkers.
//
// Typical use (see examples/quickstart.cpp for the narrated version):
//
//   RackParams p;                       // defaults = the paper's 9-node rack
//   p.kind = SystemKind::kCcKvs;
//   p.consistency = ConsistencyModel::kSc;
//   RackSimulation rack(p);
//   RackReport r = rack.Run(/*measure_ns=*/2'000'000, /*warmup_ns=*/500'000);
//   // r.mrps, r.hit_rate, r.p99_latency_us, per-class traffic, ...
//
// Runs are deterministic in p.seed: identical params give bit-identical
// reports, which is what the figure benches in bench/ rely on.

#ifndef CCKVS_CCKVS_RACK_H_
#define CCKVS_CCKVS_RACK_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "src/cache/symmetric_cache.h"
#include "src/cckvs/params.h"
#include "src/net/network.h"
#include "src/protocol/engine.h"
#include "src/sim/simulator.h"
#include "src/store/partition.h"
#include "src/store/partitioner.h"
#include "src/topk/hot_set_manager.h"
#include "src/verify/history.h"
#include "src/workload/workload.h"

namespace cckvs {

class RackSimulation {
 public:
  explicit RackSimulation(const RackParams& params);
  ~RackSimulation();
  RackSimulation(const RackSimulation&) = delete;
  RackSimulation& operator=(const RackSimulation&) = delete;

  // Runs warmup + measurement and returns the measured-window report.  May be
  // called repeatedly to take consecutive slices of one long run; client load
  // starts on the first call.  When `drain` is true (default), client load
  // stops after the measurement and all in-flight work completes, sealing the
  // recorded history — pass false between consecutive slices.
  RackReport Run(SimTime measure_ns, SimTime warmup_ns = 0, bool drain = true);

  const RackParams& params() const { return params_; }
  Simulator& simulator() { return sim_; }
  History& history() { return history_; }

  // Test access.
  const SymmetricCache* cache(NodeId node) const;
  const CoherenceEngine* engine(NodeId node) const;
  const Partition* partition(NodeId node, int kvs_thread = 0) const;
  // The hot-set subsystem of a node (nullptr unless online_topk); node 0 is
  // the coordinator.
  const HotSetManager* hot_set_manager(NodeId node) const;
  // The simulated fabric, whose stats count every byte put on the wire.
  const Network& network() const { return *net_; }
  NodeId HomeOf(Key key) const;
  // kCentralCache routing: whether `key` belongs to the (static) hot set held
  // by the dedicated cache node.
  bool IsHotKey(Key key) const { return hot_set_.count(key) != 0; }

 private:
  friend class RackNode;

  RackParams params_;
  // Shared by every node's generator and the hot-set probe, so the rack
  // builds one Zipf hot table.
  ZipfSampler zipf_;
  Simulator sim_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Partitioner> partitioner_;
  std::vector<std::unique_ptr<class RackNode>> nodes_;
  std::unordered_set<Key> hot_set_;  // kCentralCache routing filter
  History history_;

  // Measured-window counters (snapshot-and-delta around warmup).
  struct Counters;
  std::unique_ptr<Counters> at_warmup_;
  bool started_ = false;
};

}  // namespace cckvs

#endif  // CCKVS_CCKVS_RACK_H_
