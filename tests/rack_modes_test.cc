// Integration tests for optional rack mechanisms: request coalescing, RDMA
// multicast updates, EREW mode, open-loop load and wire-accounting identities.

#include <gtest/gtest.h>

#include "src/cckvs/rack.h"

namespace cckvs {
namespace {

RackParams ModeRack(ConsistencyModel model = ConsistencyModel::kSc) {
  RackParams p;
  p.kind = SystemKind::kCcKvs;
  p.consistency = model;
  p.num_nodes = 4;
  p.workload.keyspace = 50'000;
  p.workload.zipf_alpha = 0.99;
  p.workload.write_ratio = 0.05;
  p.cache_capacity = 64;
  p.window_per_node = 24;
  p.record_history = true;
  p.seed = 23;
  return p;
}

// ---------------------------------------------------------------------------
// Coalescing
// ---------------------------------------------------------------------------

TEST(RackModes, CoalescingPreservesLinearizability) {
  RackParams p = ModeRack(ConsistencyModel::kLin);
  p.coalescing = true;
  RackSimulation rack(p);
  const RackReport r = rack.Run(400'000, 50'000);
  EXPECT_GT(r.completed, 1000u);
  EXPECT_EQ(rack.history().CheckPerKeyLinearizability(), "");
}

TEST(RackModes, CoalescingReducesHeaderShare) {
  RackParams off = ModeRack();
  off.workload.write_ratio = 0.0;
  RackParams on = off;
  on.coalescing = true;
  RackSimulation rack_off(off);
  RackSimulation rack_on(on);
  const RackReport r_off = rack_off.Run(300'000, 100'000);
  const RackReport r_on = rack_on.Run(300'000, 100'000);
  const double share_off = r_off.header_gbps_per_node / r_off.tx_gbps_per_node;
  const double share_on = r_on.header_gbps_per_node / r_on.tx_gbps_per_node;
  EXPECT_LT(share_on, share_off);
}

TEST(RackModes, CoalescingImprovesSmallObjectThroughput) {
  RackParams off = ModeRack();
  off.workload.write_ratio = 0.0;
  off.window_per_node = 256;
  RackParams on = off;
  on.coalescing = true;
  RackSimulation rack_off(off);
  RackSimulation rack_on(on);
  const double mrps_off = rack_off.Run(300'000, 100'000).mrps;
  const double mrps_on = rack_on.Run(300'000, 100'000).mrps;
  EXPECT_GT(mrps_on, mrps_off);
}

// ---------------------------------------------------------------------------
// Multicast updates
// ---------------------------------------------------------------------------

TEST(RackModes, MulticastUpdatesPreserveSc) {
  RackParams p = ModeRack(ConsistencyModel::kSc);
  p.multicast_updates = true;
  RackSimulation rack(p);
  const RackReport r = rack.Run(400'000, 50'000);
  EXPECT_GT(r.updates_sent, 0u);
  EXPECT_EQ(rack.history().CheckPerKeySequentialConsistency(), "");
  EXPECT_EQ(rack.history().CheckWriteAtomicity(), "");
}

TEST(RackModes, MulticastDoesNotBeatUnicastMaterially) {
  // §6.3: the receive side is the bottleneck, so multicast gives no real win.
  RackParams uni = ModeRack(ConsistencyModel::kSc);
  uni.workload.write_ratio = 0.1;
  uni.window_per_node = 128;
  RackParams multi = uni;
  multi.multicast_updates = true;
  RackSimulation rack_uni(uni);
  RackSimulation rack_multi(multi);
  const double m_uni = rack_uni.Run(300'000, 100'000).mrps;
  const double m_multi = rack_multi.Run(300'000, 100'000).mrps;
  EXPECT_LT(m_multi, m_uni * 1.15);  // within noise: no big multicast win
}

// ---------------------------------------------------------------------------
// EREW mode
// ---------------------------------------------------------------------------

TEST(RackModes, ErewKvsKeepsLinearizability) {
  RackParams p = ModeRack(ConsistencyModel::kLin);
  p.kvs_erew = true;
  RackSimulation rack(p);
  const RackReport r = rack.Run(400'000, 50'000);
  EXPECT_GT(r.completed, 1000u);
  EXPECT_EQ(rack.history().CheckPerKeyLinearizability(), "");
}

TEST(RackModes, ErewCreatesMoreQps) {
  // Indirectly observable through the §6.4 memory argument: EREW registers
  // more receive-buffer memory.  Exercised via the rack running cleanly and
  // the partition split below.
  RackParams p = ModeRack();
  p.kvs_erew = true;
  RackSimulation rack(p);
  rack.Run(100'000, 0);
  // Each KVS thread has its own partition under EREW.
  EXPECT_NE(rack.partition(0, 0), rack.partition(0, 1));
  RackParams crcw = ModeRack();
  RackSimulation rack2(crcw);
  rack2.Run(100'000, 0);
  EXPECT_EQ(rack2.partition(0, 0), rack2.partition(0, 1));
}

// ---------------------------------------------------------------------------
// Centralized cache (Figure 2b strawman)
// ---------------------------------------------------------------------------

TEST(CentralCache, ServesHotKeysAndStaysLinearizable) {
  RackParams p = ModeRack();
  p.kind = SystemKind::kCentralCache;
  p.workload.write_ratio = 0.1;
  RackSimulation rack(p);
  const RackReport r = rack.Run(400'000, 50'000);
  EXPECT_GT(r.completed, 1000u);
  // The single cache copy is trivially linearizable.
  EXPECT_EQ(rack.history().CheckPerKeyLinearizability(), "");
  // No consistency traffic: one copy, nothing to keep coherent.
  EXPECT_EQ(r.invalidations_sent, 0u);
  EXPECT_EQ(r.updates_sent, 0u);
}

TEST(CentralCache, OnlyCacheNodeCountsHits) {
  RackParams p = ModeRack();
  p.kind = SystemKind::kCentralCache;
  p.workload.write_ratio = 0.0;
  RackSimulation rack(p);
  const RackReport r = rack.Run(300'000, 50'000);
  // Hits are ops the cache node itself generated and served locally: roughly
  // hit-fraction / num_nodes of all traffic.
  EXPECT_GT(r.hit_mrps, 0.0);
  EXPECT_LT(r.hit_rate, 0.35);
}

TEST(CentralCache, LosesToSymmetricCachingUnderSkew) {
  // The paper's scalability argument (Section 2.2): the dedicated cache node
  // saturates while symmetric caches scale with the deployment.
  RackParams central = ModeRack();
  central.kind = SystemKind::kCentralCache;
  central.window_per_node = 128;
  RackParams cc = ModeRack();
  cc.window_per_node = 128;
  RackSimulation central_rack(central);
  RackSimulation cc_rack(cc);
  const double central_mrps = central_rack.Run(300'000, 100'000).mrps;
  const double cc_mrps = cc_rack.Run(300'000, 100'000).mrps;
  EXPECT_GT(cc_mrps, central_mrps * 1.3);
}

// ---------------------------------------------------------------------------
// Wire accounting
// ---------------------------------------------------------------------------

TEST(RackAccounting, ReadOnlyTrafficMatchesBrr) {
  // In a read-only Base run every completed remote op moves exactly B_RR bytes;
  // local ops move none.  Check the measured bytes-per-op against (1-1/N)*B_RR.
  RackParams p;
  p.kind = SystemKind::kBase;
  p.num_nodes = 4;
  p.workload.keyspace = 100'000;
  p.workload.zipf_alpha = 0.0;  // uniform: clean remote fraction
  p.window_per_node = 64;
  p.seed = 5;
  RackSimulation rack(p);
  const RackReport r = rack.Run(400'000, 100'000);
  const double bytes_per_op =
      (r.tx_gbps_per_node * p.num_nodes / 8.0) * 1e9 / (r.mrps * 1e6);
  const WireFormat wf;
  const double expected = (1.0 - 1.0 / p.num_nodes) * wf.Brr(40);
  EXPECT_NEAR(bytes_per_op, expected, 0.05 * expected);
}

TEST(RackAccounting, LinWriteTrafficMatchesBlin) {
  // Consistency bytes per completed cache write must equal (N-1) * B_Lin
  // (invalidation + ack + update to every peer).
  RackParams p = ModeRack(ConsistencyModel::kLin);
  p.workload.write_ratio = 0.10;
  RackSimulation rack(p);
  const RackReport r = rack.Run(400'000, 100'000);
  const WireFormat wf;
  const double consistency_gbps =
      r.class_gbps[static_cast<int>(TrafficClass::kUpdate)] +
      r.class_gbps[static_cast<int>(TrafficClass::kInvalidation)] +
      r.class_gbps[static_cast<int>(TrafficClass::kAck)];
  const double consistency_bytes_per_s = consistency_gbps * p.num_nodes / 8.0 * 1e9;
  const double hot_writes_per_s = r.hit_rate > 0
                                      ? r.mrps * 1e6 * p.workload.write_ratio * r.hit_rate
                                      : 0.0;
  ASSERT_GT(hot_writes_per_s, 0.0);
  const double measured = consistency_bytes_per_s / hot_writes_per_s;
  const double expected = (p.num_nodes - 1) * wf.Blin(40);
  EXPECT_NEAR(measured, expected, 0.15 * expected);
}

// ---------------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------------

TEST(RackModes, OpenLoopDeliversOfferedLoad) {
  RackParams p = ModeRack();
  p.workload.write_ratio = 0.0;
  p.record_history = false;
  p.open_loop_mrps_per_node = 3.0;
  RackSimulation rack(p);
  const RackReport r = rack.Run(500'000, 100'000);
  // Below saturation the system must complete ~the offered load.
  EXPECT_NEAR(r.mrps, 3.0 * p.num_nodes, 0.15 * 3.0 * p.num_nodes);
}

TEST(RackModes, DeterministicGivenSeed) {
  RackParams p = ModeRack(ConsistencyModel::kLin);
  RackSimulation a(p);
  RackSimulation b(p);
  const RackReport ra = a.Run(200'000, 50'000);
  const RackReport rb = b.Run(200'000, 50'000);
  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_EQ(ra.updates_sent, rb.updates_sent);
  EXPECT_EQ(ra.invalidations_sent, rb.invalidations_sent);
  EXPECT_EQ(a.history().size(), b.history().size());
}

TEST(RackModes, SeedChangesExecution) {
  RackParams p = ModeRack();
  RackParams q = p;
  q.seed = p.seed + 1;
  RackSimulation a(p);
  RackSimulation b(q);
  const RackReport ra = a.Run(200'000, 50'000);
  const RackReport rb = b.Run(200'000, 50'000);
  EXPECT_NE(ra.completed, rb.completed);
}

}  // namespace
}  // namespace cckvs
