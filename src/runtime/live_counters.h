// Every counter a live node thread owns, declared once, as X(name, kind, total)
// in CCKVS_LIVE_COUNTERS.  This table is the one place to add a counter (plus
// a line in LiveNode::counters(), the read-out that knows where the node keeps
// it).  It generates LiveCounters, the profiler's block, sample and CSV columns
// (in table order), LiveReport's counter fields and their sum over the nodes,
// and the bench JSON's fields.
//   kind   kFlow only grows: the profiler reports per-interval deltas.
//          kGauge is instantaneous: the profiler reports it verbatim.
//   total  Where LiveRack::Run sums the nodes: report = LiveReport::name,
//          rack = LiveReport::rack.name (the RackReport the simulator shares),
//          none = no run total.

#ifndef CCKVS_RUNTIME_LIVE_COUNTERS_H_
#define CCKVS_RUNTIME_LIVE_COUNTERS_H_

#include <cstdint>

#define CCKVS_LIVE_COUNTERS(X)                                                       \
  X(completed, kFlow, report)          /* client ops completed */                    \
  X(hit_completed, kFlow, report)      /* of those, symmetric-cache and L1 hits */   \
  X(miss_completed, kFlow, report)                                                   \
  X(l1_hits, kFlow, rack)              /* the node-private L1 tail */                \
  X(l1_fills, kFlow, rack)                                                           \
  X(l1_invalidations, kFlow, rack)                                                   \
  X(sc_credit_stalls, kFlow, report)   /* SC write-hits parked at the throttle */    \
  X(gate_retries, kFlow, report)       /* misses parked on the residency gate */     \
  X(rpcs_sent, kFlow, report)          /* ranked: remote-home misses sent by RPC */  \
  X(msgs_sent, kFlow, report)          /* messages the coalescer shipped */          \
  X(batches_sent, kFlow, report)       /* == channel_batches, sender view */         \
  X(flushes_size, kFlow, report)       /* batches closed by the max_batch cap */     \
  X(flushes_boundary, kFlow, report)   /* batches closed at an op boundary */        \
  X(flushes_idle, kFlow, report)       /* backstop flushes (0 in a healthy run) */   \
  X(flushes_deadline, kFlow, report)   /* sub-cap batches held to the deadline */    \
  X(channel_messages, kFlow, report)   /* inbound messages handled */                \
  X(channel_batches, kFlow, report)    /* inbound pushes; == messages uncoalesced */ \
  X(channel_full_waits, kFlow, report) /* nonzero: credit sizing was violated */     \
  X(credit_parks, kFlow, report)       /* broadcasts parked waiting for credits */   \
  X(wakeups, kFlow, report)            /* receiver wakeups (<= batches pushed) */    \
  X(updates_collapsed, kFlow, report)  /* receive-side same-key run collapses */     \
  X(epoch_msgs, kFlow, report)         /* announces, fills and installs sent */      \
  X(updates_sent, kFlow, rack)         /* consistency messages sent, per class */    \
  X(invalidations_sent, kFlow, rack)                                                 \
  X(acks_sent, kFlow, rack)                                                          \
  X(credit_updates_sent, kFlow, rack)                                                \
  X(hot_path_allocs, kGauge, report)   /* operator-new calls in the alloc window */  \
  X(inbound_depth, kGauge, none)       /* fabric occupancy: batches, or shm bytes */

// CCKVS_BY_TOTAL_<total>(a, b) expands to `a` for a `report` counter, `b` for
// a `rack` one and nothing for `none`.
#define CCKVS_BY_TOTAL_report(a, b) a
#define CCKVS_BY_TOTAL_rack(a, b) b
#define CCKVS_BY_TOTAL_none(a, b)

namespace cckvs {

enum class CounterKind { kFlow, kGauge };

struct LiveCounters {
#define CCKVS_COUNTER_FIELD(name, kind, total) std::uint64_t name = 0;
  CCKVS_LIVE_COUNTERS(CCKVS_COUNTER_FIELD)
#undef CCKVS_COUNTER_FIELD
};

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_LIVE_COUNTERS_H_
