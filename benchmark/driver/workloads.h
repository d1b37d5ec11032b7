// The benchmark's workloads, each a complete LiveRackParams.
//
// Every workload is one single-process LiveRack of four node threads (one per
// vCPU of the reference machine), busy-polling, coalescing on, profiler off,
// no pinning, fed closed-loop by 32 sessions per node from a prefilled store
// under Zipf(0.99) with 40 B values, with a 1000-key symmetric hot set and
// each shard's index sized to its keys (LiveRackParams' default index is
// test-sized and would turn every miss into an overflow-chain walk).  They
// differ in the layers they load:
//
//   read_skew      SC, read-only, 1M keys, inproc.  Half the ops hit the
//                  symmetric cache, half read a remote shard's seqlock; the
//                  protocol, coalescer, codec and fabric do no work.
//   write_lin_shm  Lin, 5% writes, 1M keys, shm fabric.  Invalidations, acks
//                  and updates cross the engines, the coalescer, the wire
//                  codec and the shared-memory rings.
//   node_skew_l1   SC, 5% writes, 100k keys, per-node rank rotation, a
//                  4096-entry LRU L1 in front of the symmetric tier.  The
//                  only workload where the L1 and its admission sketch work.
//
// epoch_drift (online hot-set epochs under drift) is not part of the
// benchmark: its drain can hang, so it only exercises the run watchdog.

#ifndef CCKVS_BENCHMARK_DRIVER_WORKLOADS_H_
#define CCKVS_BENCHMARK_DRIVER_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "src/runtime/live_rack.h"

namespace cckvs::benchmark {

// Fills *out with the named workload's rack for `seed`.  Returns false for
// an unknown name.  The caller names the shm object of each rack it builds.
bool MakeWorkload(const std::string& name, std::uint64_t seed, LiveRackParams* out);

}  // namespace cckvs::benchmark

#endif  // CCKVS_BENCHMARK_DRIVER_WORKLOADS_H_
