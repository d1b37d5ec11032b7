// Live rack vs. simulator: measured Mops/s on real threads next to the
// discrete-event prediction for the same configuration — now with the
// transport-coalescing axis (§8.5's live analogue, runtime/coalescer.h).
//
// The two numbers answer different questions and are NOT expected to match:
// the simulator models a 9-node RDMA rack (54 Gb/s links, NIC and CPU service
// times), while the live rack executes the same store/cache/protocol code
// in-process, where "the network" is a memory channel.  What should line up
// is structure: hit rates agree (same workload, same hot set), SC outruns Lin
// (no invalidation round-trip), consistency-message ratios match the
// protocol, and coalescing helps both fabrics — the sim by amortizing packet
// headers, the live rack by amortizing channel pushes and receiver wakeups.
// Divergence in those shapes — not in absolute Mops — is the regression
// signal; the bench-smoke JSON artifact tracks both PR-to-PR.
//
// Flags (besides the bench_util.h standard --smoke/--json=PATH):
//   --coalescing=off|on|both   restrict the live sweep to one coalescing
//                              config (CI runs off and on as separate jobs so
//                              both land in the artifact); default both.
//   --transport=inproc|shm|socket
//                              fabric backend for the live racks (default
//                              inproc).  shm/socket route every cross-node
//                              message through serialized WireBatch frames in
//                              a shared-memory ring / a UDS stream, so the
//                              delta against inproc prices the wire.
//   --pin                      pin each node thread to its own core
//                              (LiveRackParams::pinning; modulo nproc).
//   --busy-poll                spin instead of parking when a node idles
//                              (LiveRackParams::busy_poll).
//   --profile-csv=PATH         run the per-second profiler thread on every
//                              rack and append its per-node counter CSV to
//                              PATH (runtime/profiler.h; CI uploads this as
//                              an artifact next to the JSON).
//   --trace=PATH               run a traced/untraced SC pair after the sweep
//                              (runtime/tracing.h): the traced rack writes a
//                              Chrome trace-event JSON to PATH and the bench
//                              prints the tracing overhead in Mops/s; the JSON
//                              artifact gains a trace_overhead_pct field that
//                              tools/bench_delta.py hard-warns on above 5%.
//                              Also arms tracing inside the zero-alloc audit
//                              (trace written to PATH.zeroalloc), proving the
//                              span rings allocate nothing in steady state.
//   --trace-sample=N           trace 1 op in N (default 64).
//   --l1=off|on|N              arm the per-node L1 tail cache (cache/l1_tail.h)
//                              on every live rack in the sweep: `on` uses 4096
//                              entries, a number sets the capacity directly
//                              (default off).  CI runs off and on as separate
//                              jobs so the artifact pair prices the tier.
//
// Independent of --l1, the bench always runs a per-node-skew L1 pair: a
// 4-process shm rack (ranks forked by RunRankedRack, runtime/multiproc.h,
// the launcher tools/run_multiproc.sh also uses) under a strided workload
// (node_rank_stride rotates each node's zipf ranks, so nodes agree on little
// of their tails) with the L1 off and then on.  Separate processes matter
// here: a shared-cache miss must cost a real serialized RPC into another
// address space — an in-process rack underprices that miss to a function
// call, which no private tier can beat.  The L1-on JSON entry carries both
// racks' whole-rack Mops/s (`rack_mrps`, `l1_off_mrps`), the pair
// tools/bench_delta.py hard-warns on when the tier stops paying for itself.
//
// The final section is the zero-allocation audit (docs/PERFORMANCE.md): an
// SC rack with the whole store prefilled runs with the allocation tracker
// armed and CCKVS_CHECKs that the steady state performed zero operator-new
// calls on any node thread (Lin, allocation-free too, is audited on the same
// shape by tests/live_rack_test.cc).  It runs on the --transport backend when that is
// inproc or shm (the shm audit adds the frame codec, ring scratch and pool
// magazines); --transport=socket audits inproc, since socket frames decode
// on an rx thread the audit does not arm.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/runtime/live_rack.h"
#include "src/runtime/multiproc.h"

namespace {

// Each rack gets a fresh kernel namespace: shm segments and socket paths must
// not collide across the sweep's racks (teardown unlinks, but stale names from
// a crashed previous run must not bite either).
cckvs::TransportOptions SweepTransport(cckvs::TransportKind kind) {
  static int counter = 0;
  cckvs::TransportOptions t;
  t.kind = kind;
  const std::string ns =
      std::to_string(getpid()) + "_" + std::to_string(counter++);
  t.shm_name = "/cckvs_bench_" + ns;
  t.socket_path_base = "/tmp/cckvs_bench_" + ns;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cckvs;
  using namespace cckvs::bench;
  Init(argc, argv);

  bool run_off = true;
  bool run_on = true;
  bool pin = false;
  bool busy_poll = false;
  std::string profile_csv;
  std::string trace_path;
  std::uint64_t trace_sample = 64;
  std::uint64_t l1_capacity = 0;
  TransportKind transport = TransportKind::kInproc;
  const char* transport_name = "inproc";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--coalescing=off") == 0) {
      run_on = false;
    } else if (std::strcmp(argv[i], "--coalescing=on") == 0) {
      run_off = false;
    } else if (std::strcmp(argv[i], "--transport=shm") == 0) {
      transport = TransportKind::kShm;
      transport_name = "shm";
    } else if (std::strcmp(argv[i], "--transport=socket") == 0) {
      transport = TransportKind::kSocket;
      transport_name = "socket";
    } else if (std::strcmp(argv[i], "--transport=inproc") == 0) {
      transport = TransportKind::kInproc;
      transport_name = "inproc";
    } else if (std::strcmp(argv[i], "--pin") == 0) {
      pin = true;
    } else if (std::strcmp(argv[i], "--busy-poll") == 0) {
      busy_poll = true;
    } else if (std::strncmp(argv[i], "--profile-csv=", 14) == 0) {
      profile_csv = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--trace-sample=", 15) == 0) {
      trace_sample = std::strtoull(argv[i] + 15, nullptr, 10);
    } else if (std::strncmp(argv[i], "--l1=", 5) == 0) {
      const char* v = argv[i] + 5;
      if (std::strcmp(v, "off") == 0) {
        l1_capacity = 0;
      } else if (std::strcmp(v, "on") == 0) {
        l1_capacity = 4096;
      } else {
        l1_capacity = std::strtoull(v, nullptr, 10);
      }
    }
  }

  // Applies the run-loop flags to one rack config.  Profiler CSVs get a
  // per-rack suffix so the sweep's racks don't clobber one file.
  int rack_seq = 0;
  const auto ApplyLoopFlags = [&](LiveRackParams* lp) {
    lp->pinning = pin;
    lp->busy_poll = busy_poll;
    lp->l1_capacity = l1_capacity;
    if (!profile_csv.empty()) {
      lp->profile = true;
      lp->profile_csv_path = profile_csv + "." + std::to_string(rack_seq++);
    }
  };
  // L1-armed runs get distinct labels so bench_delta.py never diffs a run
  // that has a private tier against one that doesn't.
  const std::string l1_label =
      l1_capacity == 0 ? "" : " l1=" + std::to_string(l1_capacity);

  const int kNodes = 8;
  const std::uint64_t ops = Smoke() ? 25'000 : 400'000;

  std::printf("Live rack, %d nodes, 1M keys, 0.1%% cache, 5%% writes, window 32, "
              "transport=%s%s%s\n", kNodes, transport_name,
              pin ? " pinned" : "", busy_poll ? " busy-poll" : "");
  std::printf("(sim prediction: 9-node RDMA rack at the same workload)\n\n");
  std::printf("%-8s %-6s %12s %10s %10s %10s %10s %10s\n", "model", "coal",
              "live Mops/s", "hit%", "msgs", "batches", "avg B", "wakeups");

  double mops[2][2] = {};  // [model][coalescing]
  int mi = 0;
  for (const ConsistencyModel model :
       {ConsistencyModel::kSc, ConsistencyModel::kLin}) {
    for (const bool coalesce : {false, true}) {
      if ((coalesce && !run_on) || (!coalesce && !run_off)) {
        continue;
      }
      LiveRackParams lp = LiveCoalescingRack(model, coalesce, ops);
      lp.transport = SweepTransport(transport);
      ApplyLoopFlags(&lp);
      // Pin/busy-poll runs get distinct labels so bench_delta.py never
      // compares a parked run against a spinning one.
      const LiveReport lr =
          RunLive(lp, std::string("live ccKVS/") + ToString(model) +
                          " coalescing=" + (coalesce ? "on" : "off") +
                          " transport=" + transport_name + l1_label +
                          (pin ? " pin" : "") + (busy_poll ? " busy-poll" : ""));
      mops[mi][coalesce ? 1 : 0] = lr.rack.mrps;
      std::printf("%-8s %-6s %12.2f %9.1f%% %10llu %10llu %10.1f %10llu\n",
                  ToString(model), coalesce ? "on" : "off", lr.rack.mrps,
                  100.0 * lr.rack.hit_rate,
                  static_cast<unsigned long long>(lr.channel_messages),
                  static_cast<unsigned long long>(lr.channel_batches),
                  lr.batch_sizes.count() == 0 ? 0.0 : lr.batch_sizes.Mean(),
                  static_cast<unsigned long long>(lr.wakeups));
    }
    ++mi;
  }

  PrintHeaderRule();
  std::printf("sim prediction at the same workload (9 nodes, coalescing on/off):\n");
  std::printf("%-8s %-6s %12s %10s\n", "model", "coal", "sim MRPS", "hit%");
  for (const ConsistencyModel model :
       {ConsistencyModel::kSc, ConsistencyModel::kLin}) {
    for (const bool coalesce : {false, true}) {
      if ((coalesce && !run_on) || (!coalesce && !run_off)) {
        continue;  // keep the CI artifacts disjoint: one sim config per flag
      }
      RackParams sp;
      sp.kind = SystemKind::kCcKvs;
      sp.consistency = model;
      sp.num_nodes = 9;
      sp.workload.keyspace = 1'000'000;
      sp.workload.zipf_alpha = 0.99;
      sp.workload.write_ratio = 0.05;
      sp.workload.value_bytes = 40;
      sp.cache_capacity = 1'000;
      sp.coalescing = coalesce;
      sp.seed = 42;
      const RackReport sr = RunRack(sp, coalesce ? "coalescing=on" : "coalescing=off");
      std::printf("%-8s %-6s %12.2f %9.1f%%\n", ToString(model),
                  coalesce ? "on" : "off", sr.mrps, 100.0 * sr.hit_rate);
    }
  }

  if (run_on) {
    // Deadline-based flush sweep (ROADMAP "adaptive coalescing flush"): hold
    // sub-cap batches up to N µs past the op boundary.  Expect avg batch size
    // to grow with the deadline while Mops/s trades against op latency.
    PrintHeaderRule();
    std::printf("deadline-flush sweep (SC, coalescing on; 0 = flush every boundary):\n");
    std::printf("%-12s %12s %10s %10s %12s %12s\n", "deadline_us", "live Mops/s",
                "avg B", "p99 us", "fl_deadline", "fl_boundary");
    for (const std::uint64_t deadline_us : {0ull, 5ull, 20ull, 50ull}) {
      LiveRackParams lp = LiveCoalescingRack(ConsistencyModel::kSc, true, ops);
      lp.transport = SweepTransport(transport);
      ApplyLoopFlags(&lp);
      lp.coalesce_flush_deadline_us = deadline_us;
      char label[128];
      std::snprintf(label, sizeof(label),
                    "live ccKVS/SC coalescing=on deadline_us=%llu transport=%s%s%s%s",
                    static_cast<unsigned long long>(deadline_us), transport_name,
                    l1_label.c_str(), pin ? " pin" : "",
                    busy_poll ? " busy-poll" : "");
      const LiveReport lr = RunLive(lp, label);
      std::printf("%-12llu %12.2f %10.1f %10.1f %12llu %12llu\n",
                  static_cast<unsigned long long>(deadline_us), lr.rack.mrps,
                  lr.batch_sizes.count() == 0 ? 0.0 : lr.batch_sizes.Mean(),
                  lr.rack.p99_latency_us,
                  static_cast<unsigned long long>(lr.flushes_deadline),
                  static_cast<unsigned long long>(lr.flushes_boundary));
    }
  }

  {
    // Per-node-skew L1 pair (tentpole measurement, docs/ARCHITECTURE.md
    // "hierarchical caching").  node_rank_stride rotates each node's zipf
    // rank order, so the nodes agree on the global head (which the shared
    // symmetric cache keeps) but each has a private warm tail the shared tier
    // cannot hold for everyone.  The L1 absorbs exactly that tail.
    //
    // The pair runs FOUR PROCESSES over shm (ranks forked from this one),
    // busy-polling, because that is where the tier's economics are real: a
    // shared-cache miss serializes a WireBatch into another address space
    // and waits for the owner process to poll, decode, and answer.  An in-process rack on the sweep's fabric underprices that
    // miss to a few cache-line reads, which no private tier can beat.
    // Off → on at the same workload prices the tier; the on-entry's JSON
    // carries both whole-rack rates (`rack_mrps`, `l1_off_mrps`) so
    // tools/bench_delta.py can hard-warn the moment the tier stops winning.
    PrintHeaderRule();
    const std::uint64_t l1_cap = l1_capacity == 0 ? 4096 : l1_capacity;
    const int pair_nodes = 4;
    const std::uint64_t pair_ops = Smoke() ? 40'000 : 100'000;
    std::printf("per-node-skew L1 pair (4-process shm rack, busy-poll, "
                "stride-rotated zipf ranks, L1 %llu):\n",
                static_cast<unsigned long long>(l1_cap));
    std::printf("%-6s %12s %10s %10s %10s %10s %10s\n", "l1",
                "rack Mops/s", "r0 hit%", "l1 hits", "l1 fills", "l1 inval",
                "r0 rpcs");
    double off_mrps = 0.0;
    for (const bool l1_on : {false, true}) {
      LiveRackParams lp;
      lp.num_nodes = pair_nodes;
      lp.consistency = ConsistencyModel::kSc;
      // A tighter keyspace than the sweep's 1M: each node's private warm
      // tail must be revisited often enough to earn its L1 slots (admission
      // wants two proven sightings) within the run.
      lp.workload.keyspace = 100'000;
      lp.workload.zipf_alpha = 0.99;
      lp.workload.write_ratio = 0.05;
      lp.workload.value_bytes = 40;
      lp.workload.node_rank_stride = lp.workload.keyspace / 16;
      lp.cache_capacity = 1'000;
      lp.window_per_node = 32;
      lp.ops_per_node = pair_ops;
      lp.coalescing = true;
      lp.seed = 42;
      lp.busy_poll = true;  // parked 4-proc racks measure wakeup chains
      lp.l1_capacity = l1_on ? l1_cap : 0;
      lp.transport = SweepTransport(TransportKind::kShm);
      const RankedRun run = RunRankedRack(lp);
      const LiveReport& lr = run.report;
      if (!run.error.empty() || !lr.ok()) {
        std::fprintf(stderr, "l1 pair: rack unhealthy, skipping entry: %s%s\n",
                     run.error.c_str(), lr.transport_error.c_str());
        continue;
      }
      // Whole-rack rate: every rank runs the same quota and termination is
      // collective, so rank 0's wall clock covers all four ranks' ops.
      const double rack_mrps =
          lr.wall_seconds > 0.0
              ? static_cast<double>(pair_nodes) * static_cast<double>(pair_ops) /
                    lr.wall_seconds / 1e6
              : 0.0;
      char label[128];
      std::snprintf(label, sizeof(label),
                    "live ccKVS/SC node-skew 4proc-shm l1=%s", l1_on ? "on" : "off");
      auto fields = LiveReportFields(lr);
      fields.emplace_back("rack_mrps", rack_mrps);
      if (l1_on) {
        fields.emplace_back("l1_off_mrps", off_mrps);
      } else {
        off_mrps = rack_mrps;
      }
      RecordEntry(label, std::move(fields));
      std::printf("%-6s %12.2f %9.1f%% %10llu %10llu %10llu %10llu\n",
                  l1_on ? "on" : "off", rack_mrps, 100.0 * lr.rack.hit_rate,
                  static_cast<unsigned long long>(lr.rack.l1_hits),
                  static_cast<unsigned long long>(lr.rack.l1_fills),
                  static_cast<unsigned long long>(lr.rack.l1_invalidations),
                  static_cast<unsigned long long>(lr.rpcs_sent));
    }
    if (off_mrps > 0.0) {
      std::printf("(l1_off_mrps recorded on the on-entry; bench_delta.py "
                  "hard-warns if on < off)\n");
    }
  }

  if (!trace_path.empty()) {
    // Tracing overhead: the same SC coalescing rack back to back, untraced
    // then traced.  Emit() is a sampled ring store, so the delta should sit
    // well under bench_delta.py's 5% hard-warning threshold; the traced run's
    // span file doubles as the inspectable artifact (tools/trace_report.py).
    PrintHeaderRule();
    LiveRackParams base = LiveCoalescingRack(ConsistencyModel::kSc, true, ops);
    base.transport = SweepTransport(transport);
    base.pinning = pin;
    base.busy_poll = busy_poll;
    LiveRackParams traced = base;
    traced.transport = SweepTransport(transport);
    traced.trace_path = trace_path;
    traced.trace_sample = trace_sample;
    const LiveReport lr_off = RunLive(base, "live ccKVS/SC trace-pair untraced");
    const LiveReport lr_on = RunLive(traced, "live ccKVS/SC trace-pair traced");
    const double overhead_pct =
        lr_off.rack.mrps > 0.0
            ? 100.0 * (lr_off.rack.mrps - lr_on.rack.mrps) / lr_off.rack.mrps
            : 0.0;
    std::printf("tracing overhead (SC, coalescing on, sample 1/%llu):\n",
                static_cast<unsigned long long>(trace_sample));
    std::printf("  untraced %.2f Mops/s, traced %.2f Mops/s, overhead %.1f%%\n",
                lr_off.rack.mrps, lr_on.rack.mrps, overhead_pct);
    std::printf("  spans recorded %llu (dropped %llu), trace: %s\n",
                static_cast<unsigned long long>(lr_on.spans_recorded),
                static_cast<unsigned long long>(lr_on.spans_dropped),
                trace_path.c_str());
    if (!lr_on.trace_error.empty()) {
      std::fprintf(stderr, "trace export: %s\n", lr_on.trace_error.c_str());
    }
    RecordEntry("live ccKVS/SC tracing overhead",
                {{"trace_overhead_pct", overhead_pct},
                 {"mrps_untraced", lr_off.rack.mrps},
                 {"mrps_traced", lr_on.rack.mrps},
                 {"spans_recorded", static_cast<double>(lr_on.spans_recorded)},
                 {"spans_dropped", static_cast<double>(lr_on.spans_dropped)}});
  }

  {
    // Zero-allocation steady-state audit, on SC here; LiveRackZeroAllocTest
    // audits Lin on the same shape.  prefill_store materializes all 64K keys up
    // front so no steady-state PUT inserts, and track_allocs arms the
    // per-thread operator-new counter inside each node's steady-state window
    // (opened at quota/4, closed at quiescence).  alloc_assert turns a nonzero
    // count into a CCKVS_CHECK failure — the bench aborts rather than print a
    // regressed row.  The profiler runs too so the audit also exercises the
    // counter-publishing path it claims is allocation-free.
    PrintHeaderRule();
    LiveRackParams lp;
    lp.num_nodes = 4;
    lp.consistency = ConsistencyModel::kSc;
    lp.workload.keyspace = 65'536;  // small enough to prefill in milliseconds
    lp.workload.zipf_alpha = 0.99;
    lp.workload.write_ratio = 0.05;
    lp.workload.value_bytes = 40;
    lp.cache_capacity = 1'000;
    lp.window_per_node = 32;
    lp.ops_per_node = Smoke() ? 25'000 : 200'000;
    lp.coalescing = true;
    lp.seed = 42;
    // Socket frames decode on an rx thread the audit does not arm.
    const TransportKind audit_transport =
        transport == TransportKind::kSocket ? TransportKind::kInproc : transport;
    lp.transport = SweepTransport(audit_transport);
    // The L1 tier and its admission sketch run inside the audited window —
    // strided ranks make the tier actually fill and serve, so a hot-path
    // allocation hiding in the probe/fill/invalidate paths aborts the bench.
    lp.l1_capacity = 128;
    lp.workload.node_rank_stride = 1'000;
    lp.prefill_store = true;
    lp.track_allocs = true;
    lp.alloc_assert = true;
    lp.profile = true;
    lp.profile_interval_ms = Smoke() ? 20 : 250;
    if (!profile_csv.empty()) {
      lp.profile_csv_path = profile_csv + ".zeroalloc";
    }
    if (!trace_path.empty()) {
      // Tracing inside the audited window: alloc_assert proves the span
      // rings and sampler allocate nothing in the steady state.
      lp.trace_path = trace_path + ".zeroalloc";
      lp.trace_sample = trace_sample;
    }
    lp.pinning = pin;
    lp.busy_poll = busy_poll;
    const LiveReport lr = RunLive(
        lp, std::string("live ccKVS/SC zero-alloc audit transport=") +
                ToString(audit_transport) + (pin ? " pin" : "") +
                (busy_poll ? " busy-poll" : ""));
    std::printf("zero-alloc audit (SC, %s, prefilled store, L1 armed, "
                "%llu ops/node):\n",
                ToString(audit_transport),
                static_cast<unsigned long long>(lp.ops_per_node));
    std::printf("  steady-state hot-path allocs: %llu (invariant: 0), "
                "l1 hits inside the window: %llu\n",
                static_cast<unsigned long long>(lr.hot_path_allocs),
                static_cast<unsigned long long>(lr.rack.l1_hits));
    std::printf("  profiler samples: %zu, live Mops/s: %.2f, p99: %.1f us\n",
                lr.profiler_samples.size(), lr.rack.mrps,
                lr.rack.p99_latency_us);
  }

  PrintHeaderRule();
  if (run_off && run_on) {
    std::printf("coalescing speedup: SC %.2fx, Lin %.2fx (sim predicts both gain;\n"
                "live gain comes from push/wakeup amortization, not headers)\n",
                mops[0][0] > 0 ? mops[0][1] / mops[0][0] : 0.0,
                mops[1][0] > 0 ? mops[1][1] / mops[1][0] : 0.0);
  }
  std::printf("structure checks: SC > Lin live throughput, hit rates within a few\n"
              "points of the sim, updates+invalidations proportional to writes.\n");
  return 0;
}
