// Integration tests: full rack simulations of every system kind, including
// end-to-end consistency checking of recorded histories.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>

#include "src/cckvs/rack.h"
#include "src/model/analytical.h"

namespace cckvs {
namespace {

RackParams SmallRack(SystemKind kind, ConsistencyModel model = ConsistencyModel::kSc) {
  RackParams p;
  p.kind = kind;
  p.consistency = model;
  p.num_nodes = 4;
  p.workload.keyspace = 100'000;
  p.workload.zipf_alpha = 0.99;
  p.workload.write_ratio = 0.0;
  p.workload.value_bytes = 40;
  p.cache_capacity = 100;  // 0.1%
  p.window_per_node = 32;
  p.seed = 7;
  return p;
}

TEST(RackSmoke, BaseServesReads) {
  RackParams p = SmallRack(SystemKind::kBase);
  RackSimulation rack(p);
  const RackReport r = rack.Run(/*measure_ns=*/200'000, /*warmup_ns=*/50'000);
  EXPECT_GT(r.completed, 1000u);
  EXPECT_GT(r.mrps, 1.0);
  EXPECT_EQ(r.hit_mrps, 0.0);  // no cache in Base
}

TEST(RackSmoke, BaseErewServesReads) {
  RackParams p = SmallRack(SystemKind::kBaseErew);
  RackSimulation rack(p);
  const RackReport r = rack.Run(200'000, 50'000);
  EXPECT_GT(r.completed, 500u);
}

TEST(RackSmoke, CcKvsScReadOnly) {
  RackParams p = SmallRack(SystemKind::kCcKvs, ConsistencyModel::kSc);
  RackSimulation rack(p);
  const RackReport r = rack.Run(200'000, 50'000);
  EXPECT_GT(r.completed, 1000u);
  EXPECT_GT(r.hit_rate, 0.20);  // ~36% expected at this scale
  EXPECT_GT(r.hit_mrps, 0.0);
}

TEST(RackSmoke, CcKvsLinWithWrites) {
  RackParams p = SmallRack(SystemKind::kCcKvs, ConsistencyModel::kLin);
  p.workload.write_ratio = 0.05;
  RackSimulation rack(p);
  const RackReport r = rack.Run(300'000, 50'000);
  EXPECT_GT(r.completed, 1000u);
  EXPECT_GT(r.invalidations_sent, 0u);
  EXPECT_GT(r.acks_sent, 0u);
  EXPECT_GT(r.updates_sent, 0u);
}

TEST(RackSmoke, CcKvsScWithWritesSendsUpdatesOnly) {
  RackParams p = SmallRack(SystemKind::kCcKvs, ConsistencyModel::kSc);
  p.workload.write_ratio = 0.05;
  RackSimulation rack(p);
  const RackReport r = rack.Run(300'000, 50'000);
  EXPECT_GT(r.updates_sent, 0u);
  EXPECT_EQ(r.invalidations_sent, 0u);
  EXPECT_EQ(r.acks_sent, 0u);
}

TEST(RackHistory, ScHistorySatisfiesPerKeySc) {
  RackParams p = SmallRack(SystemKind::kCcKvs, ConsistencyModel::kSc);
  p.workload.keyspace = 500;   // hot, contended
  p.cache_capacity = 50;
  p.workload.write_ratio = 0.2;
  p.window_per_node = 8;
  p.record_history = true;
  RackSimulation rack(p);
  rack.Run(400'000, 0);
  ASSERT_GT(rack.history().size(), 1000u);
  EXPECT_EQ(rack.history().CheckPerKeySequentialConsistency(), "");
}

TEST(RackHistory, LinHistorySatisfiesPerKeyLinearizability) {
  RackParams p = SmallRack(SystemKind::kCcKvs, ConsistencyModel::kLin);
  p.workload.keyspace = 500;
  p.cache_capacity = 50;
  p.workload.write_ratio = 0.2;
  p.window_per_node = 8;
  p.record_history = true;
  RackSimulation rack(p);
  rack.Run(400'000, 0);
  ASSERT_GT(rack.history().size(), 1000u);
  EXPECT_EQ(rack.history().CheckPerKeyLinearizability(), "");
  EXPECT_EQ(rack.history().CheckPerKeySequentialConsistency(), "");
}

TEST(RackHistory, BaseHistoryIsLinearizable) {
  // Without caching every key has a single copy at its home shard, so the
  // baseline is trivially linearizable.
  RackParams p = SmallRack(SystemKind::kBase);
  p.workload.keyspace = 500;
  p.workload.write_ratio = 0.2;
  p.window_per_node = 8;
  p.record_history = true;
  RackSimulation rack(p);
  rack.Run(400'000, 0);
  ASSERT_GT(rack.history().size(), 500u);
  EXPECT_EQ(rack.history().CheckPerKeyLinearizability(), "");
}

TEST(RackComparison, CcKvsBeatsBaseOnSkewedReads) {
  RackParams base = SmallRack(SystemKind::kBase);
  RackParams cc = SmallRack(SystemKind::kCcKvs);
  RackSimulation base_rack(base);
  RackSimulation cc_rack(cc);
  const RackReport rb = base_rack.Run(300'000, 100'000);
  const RackReport rc = cc_rack.Run(300'000, 100'000);
  EXPECT_GT(rc.mrps, rb.mrps * 1.2);
}

TEST(RackComparison, ErewSuffersUnderSkew) {
  RackParams erew = SmallRack(SystemKind::kBaseErew);
  RackParams crcw = SmallRack(SystemKind::kBase);
  // Strong skew concentrated on one core.
  erew.workload.zipf_alpha = 1.2;
  crcw.workload.zipf_alpha = 1.2;
  RackSimulation erew_rack(erew);
  RackSimulation crcw_rack(crcw);
  const RackReport re = erew_rack.Run(300'000, 100'000);
  const RackReport rc = crcw_rack.Run(300'000, 100'000);
  EXPECT_GT(rc.mrps, re.mrps * 1.3);
}

TEST(RackLatency, OpenLoopLatencyRisesWithLoad) {
  RackParams p = SmallRack(SystemKind::kCcKvs);
  p.open_loop_mrps_per_node = 1.0;
  RackSimulation light(p);
  const RackReport rl = light.Run(300'000, 50'000);
  p.open_loop_mrps_per_node = 15.0;
  RackSimulation heavy(p);
  const RackReport rh = heavy.Run(300'000, 50'000);
  EXPECT_GT(rl.completed, 0u);
  EXPECT_GT(rh.completed, rl.completed);
  EXPECT_GE(rh.p95_latency_us, rl.p95_latency_us);
}

TEST(RackTraffic, WriteRatioGrowsConsistencyTraffic) {
  RackParams p = SmallRack(SystemKind::kCcKvs, ConsistencyModel::kLin);
  p.workload.write_ratio = 0.01;
  RackSimulation low(p);
  const RackReport rl = low.Run(300'000, 50'000);
  p.workload.write_ratio = 0.05;
  RackSimulation high(p);
  const RackReport rh = high.Run(300'000, 50'000);
  const int upd = static_cast<int>(TrafficClass::kUpdate);
  const int inv = static_cast<int>(TrafficClass::kInvalidation);
  EXPECT_GT(rh.class_gbps[upd], rl.class_gbps[upd]);
  EXPECT_GT(rh.class_gbps[inv], rl.class_gbps[inv]);
}

TEST(RackEpochs, OnlineTopKConvergesAndStaysLinearizable) {
  RackParams p = SmallRack(SystemKind::kCcKvs, ConsistencyModel::kLin);
  p.workload.keyspace = 2000;
  p.cache_capacity = 64;
  p.prefill_hot_set = false;  // learn the hot set online, from a cold cache
  p.online_topk = true;
  p.topk_epoch_requests = 3000;
  p.topk_sample_probability = 0.5;
  p.workload.write_ratio = 0.05;
  p.record_history = true;
  RackSimulation rack(p);
  const RackReport r = rack.Run(2'000'000, 0);
  EXPECT_GT(r.epochs, 0u);
  // After the first epoch the caches serve hits.
  EXPECT_GT(r.hit_rate, 0.05);
  // The simulator's RPC path runs the same shard residency gate and install
  // barrier as the live rack, so epoch transitions — evictions, write-back
  // flushes, refills, first epoch included — are part of the verified
  // protocol: the FULL per-key checkers must pass, not just write atomicity.
  EXPECT_EQ(rack.history().CheckPerKeyLinearizability(), "");
  EXPECT_EQ(rack.history().CheckPerKeySequentialConsistency(), "");
  EXPECT_EQ(rack.history().CheckWriteAtomicity(), "");
}

TEST(RackEpochs, SteadyHotSetKeepsLinearizability) {
  // Online learning over a stable distribution: epochs after the first change
  // nothing, and the whole run — including the initial transition, which used
  // to be excluded by a write-atomicity-only relaxation — is linearizable.
  RackParams p = SmallRack(SystemKind::kCcKvs, ConsistencyModel::kLin);
  p.workload.keyspace = 2000;
  p.cache_capacity = 64;
  p.online_topk = true;
  p.topk_epoch_requests = 5000;
  p.topk_sample_probability = 0.5;
  p.workload.write_ratio = 0.05;
  p.record_history = true;
  RackSimulation rack(p);
  const RackReport r = rack.Run(1'500'000, 0);
  EXPECT_GT(r.epochs, 0u);
  EXPECT_EQ(rack.history().CheckPerKeyLinearizability(), "");
  EXPECT_EQ(rack.history().CheckPerKeySequentialConsistency(), "");
}

TEST(RackEpochs, DriftingHotSetStaysLinearizable) {
  // Non-stationary skew: the Zipf rank→key mapping rotates mid-run, so epochs
  // churn the hot set while clients keep writing.  Transitions overlap client
  // load and each other; the gate + barrier must keep every recorded history
  // fully per-key linearizable.
  RackParams p = SmallRack(SystemKind::kCcKvs, ConsistencyModel::kLin);
  p.workload.keyspace = 2000;
  p.cache_capacity = 64;
  p.workload.drift_period_ops = 20'000;
  p.workload.drift_rank_shift = 16;
  p.online_topk = true;
  p.topk_epoch_requests = 2500;
  p.topk_sample_probability = 0.5;
  p.workload.write_ratio = 0.1;
  p.record_history = true;
  RackSimulation rack(p);
  const RackReport r = rack.Run(2'000'000, 0);
  EXPECT_GT(r.epochs, 1u);
  EXPECT_EQ(rack.history().CheckPerKeyLinearizability(), "");
  EXPECT_EQ(rack.history().CheckPerKeySequentialConsistency(), "");
}

TEST(RackEpochs, DriftingHotSetScStaysSequentiallyConsistent) {
  // The SC engine under the same drift: updates-only protocol, same gate and
  // barrier.  Per-key SC (and write atomicity) must hold across transitions.
  RackParams p = SmallRack(SystemKind::kCcKvs, ConsistencyModel::kSc);
  p.workload.keyspace = 2000;
  p.cache_capacity = 64;
  p.workload.drift_period_ops = 20'000;
  p.workload.drift_rank_shift = 16;
  p.online_topk = true;
  p.topk_epoch_requests = 2500;
  p.topk_sample_probability = 0.5;
  p.workload.write_ratio = 0.1;
  p.record_history = true;
  RackSimulation rack(p);
  const RackReport r = rack.Run(2'000'000, 0);
  EXPECT_GT(r.epochs, 1u);
  EXPECT_EQ(rack.history().CheckPerKeySequentialConsistency(), "");
  EXPECT_EQ(rack.history().CheckWriteAtomicity(), "");
}

// ---------------------------------------------------------------------------
// Pinned simulator output
// ---------------------------------------------------------------------------

constexpr int kNumClasses = static_cast<int>(TrafficClass::kNumClasses);

struct SimPin {
  std::uint64_t completed;
  std::uint64_t updates_sent;
  std::uint64_t invalidations_sent;
  std::uint64_t acks_sent;
  std::uint64_t epochs;
  // Header + payload bytes per TrafficClass over the whole run, drain
  // included.
  std::array<std::uint64_t, kNumClasses> wire_bytes;
};

// One small drifting run with online top-k and coalescing on, so every
// message type crosses the simulated fabric: RPCs in coalesced packets,
// consistency traffic, credits, fills, hot-set announces and install
// confirmations.  The constants were computed while each message type still
// had its own serializer; a change to what the simulator sends, to when, or
// to how many bytes a datagram puts on the wire moves them.
void ExpectPinned(ConsistencyModel model, const SimPin& want) {
  RackParams p = SmallRack(SystemKind::kCcKvs, model);
  p.workload.keyspace = 2000;
  p.cache_capacity = 64;
  p.workload.drift_period_ops = 20'000;
  p.workload.drift_rank_shift = 16;
  p.workload.write_ratio = 0.1;
  p.online_topk = true;
  p.topk_epoch_requests = 2500;
  p.topk_sample_probability = 0.5;
  p.coalescing = true;
  p.seed = 11;
  RackSimulation rack(p);
  const RackReport r = rack.Run(400'000, 100'000);
  EXPECT_EQ(r.completed, want.completed);
  EXPECT_EQ(r.updates_sent, want.updates_sent);
  EXPECT_EQ(r.invalidations_sent, want.invalidations_sent);
  EXPECT_EQ(r.acks_sent, want.acks_sent);
  EXPECT_EQ(r.epochs, want.epochs);
  for (int c = 0; c < kNumClasses; ++c) {
    const auto cls = static_cast<TrafficClass>(c);
    EXPECT_EQ(rack.network().stats().total_bytes(cls),
              want.wire_bytes[static_cast<std::size_t>(c)])
        << ToString(cls);
  }
}

TEST(RackPinned, ScRunIsPinned) {
  ExpectPinned(ConsistencyModel::kSc,
               SimPin{51068, 8292, 0, 0, 5,
                      {516571, 1004957, 878472, 0, 0, 40920, 21108, 12888}});
}

TEST(RackPinned, LinRunIsPinned) {
  ExpectPinned(ConsistencyModel::kLin,
               SimPin{44255, 7206, 7212, 7206, 4,
                      {470460, 894652, 767916, 462600, 462600, 71517, 17616, 10740}});
}

}  // namespace
}  // namespace cckvs
