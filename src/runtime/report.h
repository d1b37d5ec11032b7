// Result of a LiveRack run.
//
// The shared report shape (throughput, hit rate, latency percentiles,
// consistency-message counts) lives in the embedded RackReport so live runs
// and simulator runs are directly comparable — bench/live_throughput.cpp
// prints them side by side.  Live-only observables (wall-clock time, channel
// and credit behaviour, transport coalescing, store/slab counters) ride
// alongside.  The per-node counters come from one table, CCKVS_LIVE_COUNTERS
// (runtime/live_counters.h): the one place to add a counter.

#ifndef CCKVS_RUNTIME_REPORT_H_
#define CCKVS_RUNTIME_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cckvs/params.h"
#include "src/common/histogram.h"
#include "src/protocol/engine.h"
#include "src/runtime/live_counters.h"
#include "src/runtime/profiler.h"

namespace cckvs {

struct LiveReport {
  RackReport rack;  // mrps here means measured live Mops/s

  double wall_seconds = 0;

  // The table's `report` counters, summed over this process's nodes (its
  // `rack` counters are summed into `rack`).
#define CCKVS_REPORT_FIELD(name, kind, total) \
  CCKVS_BY_TOTAL_##total(std::uint64_t name = 0;, )
  CCKVS_LIVE_COUNTERS(CCKVS_REPORT_FIELD)
#undef CCKVS_REPORT_FIELD

  // Adds one node's counters to the run totals.
  void Add(const LiveCounters& c) {
#define CCKVS_ADD(name, kind, total) \
  CCKVS_BY_TOTAL_##total(name += c.name;, rack.name += c.name;)
    CCKVS_LIVE_COUNTERS(CCKVS_ADD)
#undef CCKVS_ADD
  }

  // Aggregated over all node engines.
  EngineStats engine_totals;
  Histogram batch_sizes;  // messages per shipped batch

  // Store behaviour across all shards (CRCW seqlock path).  Every node thread
  // writes these stripes, so no node publishes them: they are read after the join.
  std::uint64_t store_read_retries = 0;
  std::uint64_t slab_live_slots = 0;
  std::uint64_t slab_arena_bytes = 0;

  // Cross-process transport (runtime/fabric.h).  In a ranked rack this
  // report covers the LOCAL rank only (merge across ranks for rack totals).
  // transport_error is empty on a healthy run; a fabric fault (peer hangup
  // mid-frame, connect refused, undecodable frame) lands here instead of
  // hanging the run.
  std::string transport_error;

  // Per-interval per-node time series (params.profile; runtime/profiler.h),
  // and why the CSV could not be written, if it could not: diagnostic only,
  // the run still succeeds.
  std::vector<ProfilerSample> profiler_samples;
  std::string profile_error;

  // Distributed tracing (params.trace_path; runtime/tracing.h): span records
  // captured / overwritten by ring wraparound across this process's nodes,
  // and the export failure (if any) — a trace failure never fails the run.
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;
  std::string trace_error;

  bool ok() const { return transport_error.empty(); }
};

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_REPORT_H_
