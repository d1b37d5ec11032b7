#include "benchmark/driver/live.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "benchmark/driver/json_line.h"
#include "benchmark/driver/replay.h"
#include "benchmark/driver/workloads.h"
#include "src/common/cycles.h"
#include "src/common/histogram.h"
#include "src/runtime/live_rack.h"
#include "src/runtime/tracing.h"

namespace cckvs::benchmark {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Exact quantile of raw samples with linear interpolation between ranks
// (q = 0.5 is the median).  Sorts *v.
double SampleQuantile(std::vector<double>* v, double q) {
  if (v->empty()) {
    return 0.0;
  }
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v->size() - 1);
  return (*v)[lo] + ((*v)[hi] - (*v)[lo]) * (pos - static_cast<double>(lo));
}

// Histogram::Quantile reports the upper bound of the bucket holding the
// quantile, so a shift smaller than one bucket (1/64 of a power of two)
// would read as no change at all.  Interpolate inside that bucket instead:
// bisect on the monotone Quantile(q) for the rank range that lands in the
// bucket, and place q linearly within the bucket's value range.  The bucket
// geometry mirrors common/histogram.cc (64 sub-buckets per power of two).
double InterpolatedQuantileUs(const Histogram& h, double q) {
  if (h.count() == 0) {
    return 0.0;
  }
  const std::uint64_t upper = h.Quantile(q);
  const int msb = upper == 0 ? 0 : 63 - std::countl_zero(upper);
  const std::uint64_t width = msb <= 6 ? 1 : std::uint64_t{1} << (msb - 6);
  const double lower = static_cast<double>(upper + 1 - width);
  double q_lo = q;
  if (h.Quantile(0.0) == upper) {
    q_lo = 0.0;
  } else {
    double below = 0.0;  // Quantile(below) < upper <= Quantile(q_lo)
    for (int i = 0; i < 64; ++i) {
      const double mid = (below + q_lo) / 2;
      (h.Quantile(mid) < upper ? below : q_lo) = mid;
    }
  }
  double q_hi = q;
  if (h.Quantile(1.0) == upper) {
    q_hi = 1.0;
  } else {
    double above = 1.0;  // Quantile(q_hi) == upper < Quantile(above)
    for (int i = 0; i < 64; ++i) {
      const double mid = (q_hi + above) / 2;
      (h.Quantile(mid) > upper ? above : q_hi) = mid;
    }
  }
  const double frac = q_hi > q_lo ? (q - q_lo) / (q_hi - q_lo) : 1.0;
  return (lower + frac * static_cast<double>(width)) / 1000.0;
}

// Runs the rack for `seconds`, then requests the cooperative stop; Run()
// returns once the rack has drained (every issued op has completed).
LiveReport RunFor(LiveRack* rack, double seconds) {
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread timer([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::duration<double>(seconds),
                     [&] { return finished; })) {
      rack->RequestStop();
    }
  });
  LiveReport report = rack->Run();
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_one();
  timer.join();
  return report;
}

// Where an op completed, decoded from the op span's arg1 bits (live_node.cc
// CompleteOp: 1 = PUT, 2 = symmetric cache, 4 = L1).
enum Route { kGetL1, kGetSym, kGetMiss, kPutSym, kPutMiss, kNumRoutes };
constexpr const char* kRouteNames[kNumRoutes] = {"get_l1", "get_sym", "get_miss",
                                                 "put_sym", "put_miss"};

Route RouteOf(std::uint64_t arg1) {
  const bool put = (arg1 & 1) != 0;
  if ((arg1 & 4) != 0) {
    return kGetL1;
  }
  if ((arg1 & 2) != 0) {
    return put ? kPutSym : kGetSym;
  }
  return put ? kPutMiss : kGetMiss;
}

// Span durations in µs, by kind, from every node's ring.
struct SpanFold {
  std::vector<double> op_us[kNumRoutes];
  std::vector<double> shard_read_us;
  std::vector<double> shard_write_us;
  std::vector<double> batch_hold_us;
  std::vector<double> credit_wait_us;
};

void FoldSpans(LiveRack* rack, SpanFold* fold) {
  for (int i = 0; i < rack->params().num_nodes; ++i) {
    const Tracer* tracer = rack->tracer(static_cast<NodeId>(i));
    if (tracer == nullptr) {
      continue;
    }
    const SpanRing& ring = tracer->ring();
    for (std::size_t k = 0; k < ring.size(); ++k) {
      const SpanRecord& rec = ring[k];
      const double us =
          static_cast<double>(CyclesToNs(rec.end_cycles - rec.start_cycles)) / 1000.0;
      switch (rec.kind) {
        case SpanKind::kOp:
          fold->op_us[RouteOf(rec.arg1)].push_back(us);
          break;
        case SpanKind::kShardRead:
          fold->shard_read_us.push_back(us);
          break;
        case SpanKind::kShardWrite:
          fold->shard_write_us.push_back(us);
          break;
        case SpanKind::kBatchOpen:
          fold->batch_hold_us.push_back(us);
          break;
        case SpanKind::kCreditWait:
          fold->credit_wait_us.push_back(us);
          break;
        default:
          break;
      }
    }
  }
}

// One fresh rack, timed from construction to drain.
struct Window {
  double setup_s = 0;
  LiveReport report;
  Histogram latency;  // issue -> completion, merged over nodes
  // Partition::Get/Put calls made while the rack ran (the miss path).
  std::uint64_t shard_gets = 0;
  std::uint64_t shard_puts = 0;
  // Per-node rates averaged over the nodes.  Nodes serve different key mixes
  // (node_rank_stride) at different speeds, so a rack-wide ratio would move
  // with how fast each node thread happened to run in a time-boxed window.
  double l1_hit_frac = 0;   // L1 hits / ops
  double sym_hit_rate = 0;  // symmetric hits / ops that probed the symmetric tier
  SpanFold spans;  // traced windows only

  double mops() const {
    return report.wall_seconds > 0
               ? static_cast<double>(report.completed) / report.wall_seconds / 1e6
               : 0.0;
  }
};

std::pair<std::uint64_t, std::uint64_t> ShardCalls(const LiveRack& rack) {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  for (int i = 0; i < rack.params().num_nodes; ++i) {
    const PartitionStats s = rack.node(static_cast<NodeId>(i)).partition().stats();
    gets += s.gets;
    puts += s.puts;
  }
  return {gets, puts};
}

// Each rack of a run gets its own shm object name (unused by inproc racks).
Window RunWindow(const RunOptions& o, LiveRackParams params, const std::string& tag,
                 double seconds) {
  params.transport.shm_name = "/" + o.run_id + "_" + tag;
  Window w;
  const auto t0 = std::chrono::steady_clock::now();
  LiveRack rack(params);
  w.setup_s = SecondsSince(t0);
  const auto before = ShardCalls(rack);
  w.report = RunFor(&rack, seconds);
  if (!w.report.ok()) {
    return w;
  }
  const auto after = ShardCalls(rack);
  w.shard_gets = after.first - before.first;
  w.shard_puts = after.second - before.second;
  for (int i = 0; i < params.num_nodes; ++i) {
    const LiveNode& node = rack.node(static_cast<NodeId>(i));
    w.latency.Merge(node.latency());
    const LiveNode::Counters& c = node.counters();
    const double probed = static_cast<double>(c.completed - c.l1_hits);
    w.l1_hit_frac += static_cast<double>(c.l1_hits) /
                     static_cast<double>(c.completed) / params.num_nodes;
    w.sym_hit_rate += static_cast<double>(c.hit_completed - c.l1_hits) / probed /
                      params.num_nodes;
  }
  if (!params.trace_path.empty()) {
    // The spans are read from the rings directly; the Chrome file the rack
    // exported at stop is not needed.
    FoldSpans(&rack, &w.spans);
    std::remove(params.trace_path.c_str());
  }
  return w;
}

int Fail(JsonLine* out, const std::string& error) {
  out->Add("ok", false);
  out->Add("error", error);
  out->Print();
  return 1;
}

// The workload's rack, after a discarded warm-up run.  A VM whose vCPUs sat
// idle runs the first ~1.5 s of load at a fraction of its speed (measured on
// the reference machine: ~3 Mops/s instead of ~11 on read_skew), which would
// otherwise land in the first measured window.
bool Prepare(const RunOptions& o, LiveRackParams* p, JsonLine* out) {
  if (!MakeWorkload(o.workload, o.seed, p)) {
    Fail(out, "unknown workload " + o.workload);
    return false;
  }
  CyclesPerNs();  // calibrate once, outside every measured window
  const Window warm = RunWindow(o, *p, "warmup", o.warmup_seconds);
  if (!warm.report.ok()) {
    Fail(out, warm.report.transport_error);
    return false;
  }
  return true;
}

}  // namespace

int RunEndToEnd(const RunOptions& o) {
  JsonLine out;
  LiveRackParams p;
  if (!Prepare(o, &p, &out)) {
    return 1;
  }
  std::vector<double> mops;
  std::vector<double> setup;
  Histogram latency;
  std::uint64_t completed = 0;
  for (int i = 0; i < o.windows; ++i) {
    const Window w = RunWindow(o, p, std::to_string(i), o.seconds / o.windows);
    if (!w.report.ok()) {
      return Fail(&out, w.report.transport_error);
    }
    mops.push_back(w.mops());
    setup.push_back(w.setup_s);
    latency.Merge(w.latency);
    completed += w.report.completed;
  }
  // A cheap set-up (~20 ms on node_skew_l1) is noisy at that scale, so more
  // racks are built and dropped, unrun, until set-up has been timed for a
  // second in total.
  double setup_total = 0;
  for (const double s : setup) {
    setup_total += s;
  }
  LiveRackParams sp = p;
  sp.transport.shm_name = "/" + o.run_id + "_setup";
  while (setup_total < 1.0 && setup.size() < 64) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      LiveRack rack(sp);
      setup.push_back(SecondsSince(t0));
    }
    setup_total += setup.back();
  }
  out.Add("ok", true);
  out.Add("completed", static_cast<double>(completed));
  out.Add("latency_samples", static_cast<double>(latency.count()));
  out.Add("throughput_mops", SampleQuantile(&mops, 0.5));
  out.Add("op_p50_us", InterpolatedQuantileUs(latency, 0.50));
  out.Add("op_p99_us", InterpolatedQuantileUs(latency, 0.99));
  out.Add("setup_s", SampleQuantile(&setup, 0.5));
  out.Print();
  return 0;
}

int RunPerLayer(const RunOptions& o) {
  JsonLine out;
  LiveRackParams p;
  if (!Prepare(o, &p, &out)) {
    return 1;
  }
  const Window plain = RunWindow(o, p, "plain", o.seconds / 2);
  if (!plain.report.ok()) {
    return Fail(&out, plain.report.transport_error);
  }
  LiveRackParams tp = p;
  tp.trace_path = o.trace_dir + "/" + o.run_id + ".trace.json";
  tp.trace_sample = 64;
  Window traced = RunWindow(o, tp, "traced", o.seconds / 2);
  if (!traced.report.ok()) {
    return Fail(&out, traced.report.transport_error);
  }
  ReplayCosts rc;
  std::string error;
  if (!RunReplay(p, o.replay_ops, "/" + o.run_id + "_replay", &rc, &error)) {
    return Fail(&out, error);
  }

  // Everything below is per completed op of the untraced window.
  const LiveReport& r = plain.report;
  const double ops = static_cast<double>(r.completed);
  const double kop = ops / 1000.0;
  const auto per_op = [&](double count) { return ops > 0 ? count / ops : 0.0; };
  const auto per_kop = [&](double count) { return kop > 0 ? count / kop : 0.0; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  // Route counts from the live counters: L1 hits, cache-hit writes (engine
  // Write calls), and the miss path's shard calls; symmetric read hits are
  // the remainder.
  double route_ops[kNumRoutes] = {};
  route_ops[kGetL1] = static_cast<double>(r.rack.l1_hits);
  route_ops[kPutSym] = static_cast<double>(r.engine_totals.writes);
  route_ops[kGetMiss] = static_cast<double>(plain.shard_gets);
  route_ops[kPutMiss] = static_cast<double>(plain.shard_puts);
  route_ops[kGetSym] = std::max(0.0, ops - route_ops[kGetL1] - route_ops[kPutSym] -
                                         route_ops[kGetMiss] - route_ops[kPutMiss]);
  double share[kNumRoutes];
  for (int k = 0; k < kNumRoutes; ++k) {
    share[k] = per_op(route_ops[k]);
  }
  const double get_share = share[kGetL1] + share[kGetSym] + share[kGetMiss];
  const double put_share = share[kPutSym] + share[kPutMiss];
  const bool l1_on = p.l1_capacity > 0;
  const double updates_handled =
      static_cast<double>(r.rack.updates_sent) - static_cast<double>(r.updates_collapsed);

  out.Add("ok", true);
  out.Add("completed", static_cast<double>(r.completed + traced.report.completed));

  out.Add("workload.next_ns", rc.next_ns);

  out.Add("cache.sym_hit_rate", plain.sym_hit_rate);
  out.Add("cache.sym_probe_ns", rc.sym_probe_ns);
  out.Add("cache.sym_read_ns", rc.sym_read_ns);
  out.Add("cache.l1_hit_frac", plain.l1_hit_frac);
  out.Add("cache.l1_useful_fill_ratio", ratio(r.rack.l1_hits, r.rack.l1_fills));
  out.Add("cache.l1_inval_per_kop", per_kop(r.rack.l1_invalidations));
  out.Add("cache.l1_get_ns", rc.l1_get_ns);
  out.Add("cache.l1_fill_ns", rc.l1_fill_ns);
  out.Add("cache.l1_invalidate_ns", rc.l1_invalidate_ns);

  out.Add("topk.sketch_offer_ns", rc.sketch_offer_ns);
  out.Add("topk.admit_per_kop", per_kop(r.rack.l1_fills));

  out.Add("store.get_ns", rc.store_get_ns);
  out.Add("store.tryput_ns", rc.store_tryput_ns);
  out.Add("store.prefill_ns_per_key", rc.prefill_ns_per_key);
  out.Add("store.read_retries_per_kop", per_kop(r.store_read_retries));
  out.Add("store.bytes_per_key", ratio(r.slab_arena_bytes, p.workload.keyspace));

  const std::uint64_t msgs_sent =
      r.rack.updates_sent + r.rack.invalidations_sent + r.rack.acks_sent;
  out.Add("protocol.write_ns", rc.write_ns);
  out.Add("protocol.on_update_ns", rc.on_update_ns);
  out.Add("protocol.on_invalidate_ns", rc.on_invalidate_ns);
  out.Add("protocol.on_ack_ns", rc.on_ack_ns);
  out.Add("protocol.msgs_per_write", ratio(msgs_sent, route_ops[kPutSym]));
  out.Add("protocol.reads_blocked_per_kop", per_kop(r.engine_totals.reads_blocked));

  out.Add("coalescer.append_ns", rc.append_ns);
  out.Add("coalescer.take_ns", rc.take_ns);
  out.Add("coalescer.msgs_per_batch", ratio(r.channel_messages, r.channel_batches));
  out.Add("coalescer.collapsed_per_kop", per_kop(r.updates_collapsed));

  out.Add("wire.encode_ns_per_msg", rc.encode_ns_per_msg);
  out.Add("wire.decode_ns_per_msg", rc.decode_ns_per_msg);
  out.Add("wire.bytes_per_msg", rc.bytes_per_msg);

  out.Add("fabric.roundtrip_ns", rc.roundtrip_ns);
  out.Add("fabric.wakeups_per_kop", per_kop(r.wakeups));
  out.Add("fabric.credit_parks_per_kop", per_kop(r.credit_parks));
  out.Add("fabric.full_waits", static_cast<double>(r.channel_full_waits));

  SpanFold& spans = traced.spans;
  for (int k = 0; k < kNumRoutes; ++k) {
    const std::string prefix = std::string("route.") + kRouteNames[k];
    out.Add(prefix + ".share", share[k]);
    out.Add(prefix + ".p50_us", SampleQuantile(&spans.op_us[k], 0.50));
    out.Add(prefix + ".p99_us", SampleQuantile(&spans.op_us[k], 0.99));
  }
  out.Add("node.shard_read_us", SampleQuantile(&spans.shard_read_us, 0.50));
  out.Add("node.shard_write_us", SampleQuantile(&spans.shard_write_us, 0.50));
  out.Add("node.batch_hold_us", SampleQuantile(&spans.batch_hold_us, 0.50));
  out.Add("node.credit_wait_us", SampleQuantile(&spans.credit_wait_us, 0.50));
  out.Add("trace_overhead_pct",
          100.0 * ratio(plain.mops() - traced.mops(), plain.mops()));

  // End-to-end CPU time per op against the replay's per-call costs weighted
  // by how often the live run made each call (README.md, "The residual").
  const double e2e_ns = per_op(r.wall_seconds * 1e9 * p.num_nodes);
  double sum_ns = rc.next_ns + (1.0 - share[kGetL1]) * rc.sym_probe_ns +
                  share[kGetSym] * rc.sym_read_ns + share[kGetMiss] * rc.store_get_ns +
                  share[kPutMiss] * rc.store_tryput_ns + share[kPutSym] * rc.write_ns +
                  per_op(updates_handled) * rc.on_update_ns +
                  per_op(r.rack.invalidations_sent) * rc.on_invalidate_ns +
                  per_op(r.rack.acks_sent) * rc.on_ack_ns +
                  per_op(r.channel_messages) * rc.append_ns +
                  per_op(r.channel_batches) * (rc.take_ns + rc.roundtrip_ns);
  if (l1_on) {
    // Every GET probes the L1; every PUT invalidates twice (routing and
    // completion) and every handled update once; misses feed the sketch.
    sum_ns += get_share * rc.l1_get_ns +
              (2.0 * put_share + per_op(updates_handled)) * rc.l1_invalidate_ns +
              per_op(r.rack.l1_fills) * rc.l1_fill_ns +
              share[kGetMiss] * rc.sketch_offer_ns;
  }
  out.Add("layers.e2e_ns_per_op", e2e_ns);
  out.Add("layers.sum_ns_per_op", sum_ns);
  out.Add("layers.residual_ns_per_op", e2e_ns - sum_ns);
  out.Print();
  return 0;
}

int RunCheck(const RunOptions& o) {
  JsonLine out;
  LiveRackParams p;
  if (!MakeWorkload(o.workload, o.seed, &p)) {
    return Fail(&out, "unknown workload " + o.workload);
  }
  p.transport.shm_name = "/" + o.run_id + "_check";
  p.ops_per_node = o.check_ops_per_node;
  p.record_history = true;
  LiveRack rack(p);
  const LiveReport r = rack.Run();
  if (!r.ok()) {
    return Fail(&out, r.transport_error);
  }
  // A node stops issuing at its quota, but ops already in flight still
  // complete, so a node may finish a few ops past it.
  const std::uint64_t quota =
      o.check_ops_per_node * static_cast<std::uint64_t>(p.num_nodes);
  if (r.completed < quota || rack.history().size() != r.completed) {
    return Fail(&out, "completed " + std::to_string(r.completed) + " ops, recorded " +
                          std::to_string(rack.history().size()) + ", quota " +
                          std::to_string(quota));
  }
  const History& h = rack.history();
  std::string error = p.consistency == ConsistencyModel::kLin
                          ? h.CheckPerKeyLinearizability()
                          : h.CheckPerKeySequentialConsistency();
  if (error.empty()) {
    error = h.CheckWriteAtomicity();
  }
  if (!error.empty()) {
    return Fail(&out, std::string(ToString(p.consistency)) + " checker: " + error);
  }
  out.Add("ok", true);
  out.Add("completed", static_cast<double>(r.completed));
  out.Add("checker", std::string(ToString(p.consistency)) + "+atomicity");
  out.Print();
  return 0;
}

}  // namespace cckvs::benchmark
