// Layer replay: the per-call cost of every layer an op crosses.
//
// A single thread replays the first `ops` operations node 0's generator
// produces in the live rack (same config, same seed, the same hot set
// LiveRack installs) through each layer's public functions, and times every
// call with the cycle counter.  Nothing is traced inside the layers; the
// spans are this file's own, kept in memory and folded into means at exit.
// Route mixes are NOT taken from the replay: a single thread sees no
// concurrent writers, so the caller weighs these costs by the live run's
// counters instead.

#ifndef CCKVS_BENCHMARK_DRIVER_REPLAY_H_
#define CCKVS_BENCHMARK_DRIVER_REPLAY_H_

#include <cstdint>

#include "src/runtime/live_rack.h"

namespace cckvs::benchmark {

// Mean nanoseconds per call (timer overhead subtracted), 0 for a layer the
// workload never calls.
struct ReplayCosts {
  double next_ns = 0;             // WorkloadGenerator::NextInto
  double sym_probe_ns = 0;        // SymmetricCache::Probe
  double sym_read_ns = 0;         // engine Read of a symmetric hit
  double l1_get_ns = 0;           // L1TailCache::Get
  double l1_fill_ns = 0;          // L1TailCache::Fill
  double l1_invalidate_ns = 0;    // L1TailCache::Invalidate
  double sketch_offer_ns = 0;     // FlatSpaceSaving::Offer
  double store_get_ns = 0;        // Partition::Get
  double store_tryput_ns = 0;     // Partition::TryPut
  double prefill_ns_per_key = 0;  // Partition::Apply over the whole keyspace
  double write_ns = 0;            // engine Write
  double on_update_ns = 0;        // engine OnUpdate
  double on_invalidate_ns = 0;    // engine OnInvalidate (Lin)
  double on_ack_ns = 0;           // engine OnAck (Lin)
  double append_ns = 0;           // SendCoalescer::AppendTyped
  double take_ns = 0;             // SendCoalescer::Take of a non-empty batch
  double encode_ns_per_msg = 0;   // SerializeWireBatch, per message
  double decode_ns_per_msg = 0;   // TryDeserializeWireBatch, per message
  double bytes_per_msg = 0;       // encoded bytes per message
  double roundtrip_ns = 0;        // fabric Deliver + Drain of one batch
};

// `shm_name` names the replay's own fabric when the workload uses shm.
// Returns false (with *error) when the fabric cannot be built.
bool RunReplay(const LiveRackParams& params, std::uint64_t ops,
               const std::string& shm_name, ReplayCosts* out, std::string* error);

}  // namespace cckvs::benchmark

#endif  // CCKVS_BENCHMARK_DRIVER_REPLAY_H_
