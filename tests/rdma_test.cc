// Unit tests for the simulated RDMA verbs layer, the byte writer and
// credit-based flow control (the message codec's round trips are
// wire_codec_test's).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/network.h"
#include "src/rdma/flow_control.h"
#include "src/rdma/serialize.h"
#include "src/rdma/verbs.h"
#include "src/rdma/wire_format.h"
#include "src/sim/simulator.h"

namespace cckvs {
namespace {

struct TestRack {
  Simulator sim;
  NetConfig net_cfg;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<RdmaEndpoint>> endpoints;

  explicit TestRack(int nodes = 3) {
    net_cfg.num_nodes = nodes;
    net = std::make_unique<Network>(&sim, net_cfg);
    for (int i = 0; i < nodes; ++i) {
      endpoints.push_back(std::make_unique<RdmaEndpoint>(net.get(), static_cast<NodeId>(i),
                                                         NicCostModel{}));
    }
  }
};

UdQp::SendWr MakeWr(NodeId dst, std::uint16_t dst_qpn, std::size_t payload_size) {
  UdQp::SendWr wr;
  wr.dst = dst;
  wr.dst_qpn = dst_qpn;
  wr.cls = TrafficClass::kRemoteRequest;
  wr.header_bytes = 31;
  auto body = std::make_shared<Buffer>(payload_size, std::uint8_t{0xab});
  wr.body = std::move(body);
  return wr;
}

// ---------------------------------------------------------------------------
// Wire format: the paper's byte accounting
// ---------------------------------------------------------------------------

TEST(WireFormat, MatchesPaperByteCounts) {
  const WireFormat wf;
  EXPECT_EQ(wf.Brr(40), 113u);   // §8.7: B_RR = 113 B
  EXPECT_EQ(wf.Bsc(40), 83u);    // §8.7: B_SC = 83 B
  EXPECT_EQ(wf.Blin(40), 183u);  // §8.7: B_Lin = 183 B
}

TEST(WireFormat, ScalesWithValueSize) {
  const WireFormat wf;
  EXPECT_EQ(wf.ResponseWire(1024) - wf.ResponseWire(40), 984u);
  EXPECT_EQ(wf.UpdateWire(256), wf.UpdateWire(40) + 216u);
  EXPECT_EQ(wf.CreditUpdateWire(), wf.header_bytes);  // header-only
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(Serialize, LittleEndianLayout) {
  Buffer buf;
  BufferWriter w(&buf);
  w.PutU32(0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

// ---------------------------------------------------------------------------
// Verbs
// ---------------------------------------------------------------------------

TEST(Verbs, SendIsDeliveredToRightQp) {
  TestRack rack;
  QpConfig cfg;
  cfg.qpn = 7;
  UdQp* tx = rack.endpoints[0]->CreateQp(cfg);
  UdQp* rx = rack.endpoints[1]->CreateQp(cfg);
  rx->PostRecvs(4);
  int got = 0;
  rx->SetRecvHandler([&](const Datagram& dg) {
    EXPECT_EQ(dg.src, 0);
    EXPECT_EQ(dg.src_qpn, 7);
    ASSERT_TRUE(dg.body != nullptr);
    EXPECT_EQ(dg.body->size(), 10u);
    ++got;
  });
  tx->PostSendBatch({MakeWr(1, 7, 10)});
  rack.sim.Run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(rx->recvs_consumed(), 1u);
  EXPECT_EQ(rx->available_recvs(), 3);
}

TEST(Verbs, BatchedPostCostsOneDoorbell) {
  TestRack rack;
  QpConfig cfg;
  UdQp* tx = rack.endpoints[0]->CreateQp(cfg);
  UdQp* rx = rack.endpoints[1]->CreateQp(cfg);
  rx->PostRecvs(64);
  rx->SetRecvHandler([](const Datagram&) {});
  const NicCostModel cost;
  std::vector<UdQp::SendWr> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(MakeWr(1, 0, 10));
  }
  const SimTime batched = tx->PostSendBatch(batch);
  SimTime unbatched = 0;
  for (int i = 0; i < 8; ++i) {
    unbatched += tx->PostSendBatch({MakeWr(1, 0, 10)});
  }
  // 8 posts = 8 doorbells vs 1: saving is exactly 7 doorbells.
  EXPECT_EQ(unbatched - batched, 7 * cost.mmio_doorbell_ns);
  rack.sim.Run();
}

TEST(Verbs, InliningCutsPerWrCost) {
  TestRack rack;
  QpConfig cfg;
  UdQp* tx = rack.endpoints[0]->CreateQp(cfg);
  UdQp* rx = rack.endpoints[1]->CreateQp(cfg);
  rx->PostRecvs(16);
  rx->SetRecvHandler([](const Datagram&) {});
  const SimTime small = tx->PostSendBatch({MakeWr(1, 0, 100)});   // inlined
  const SimTime large = tx->PostSendBatch({MakeWr(1, 0, 1000)});  // DMA fetch
  EXPECT_LT(small, large);
  rack.sim.Run();
}

TEST(Verbs, SelectiveSignalingReducesPollCost) {
  TestRack rack;
  QpConfig every;
  every.qpn = 1;
  every.signal_interval = 1;
  QpConfig sparse;
  sparse.qpn = 2;
  sparse.signal_interval = 32;
  UdQp* tx_every = rack.endpoints[0]->CreateQp(every);
  UdQp* tx_sparse = rack.endpoints[0]->CreateQp(sparse);
  UdQp* rx1 = rack.endpoints[1]->CreateQp(every);
  UdQp* rx2 = rack.endpoints[1]->CreateQp(sparse);
  rx1->PostRecvs(8);
  rx2->PostRecvs(8);
  rx1->SetRecvHandler([](const Datagram&) {});
  rx2->SetRecvHandler([](const Datagram&) {});
  const SimTime expensive = tx_every->PostSendBatch({MakeWr(1, 1, 10)});
  const SimTime cheap = tx_sparse->PostSendBatch({MakeWr(1, 2, 10)});
  EXPECT_LT(cheap, expensive);
  rack.sim.Run();
}

TEST(VerbsDeathTest, RecvQueueUnderflowIsFatal) {
  // A message arriving with no posted receive means flow control is broken;
  // the simulator must abort loudly rather than silently drop.
  TestRack rack;
  QpConfig cfg;
  UdQp* tx = rack.endpoints[0]->CreateQp(cfg);
  UdQp* rx = rack.endpoints[1]->CreateQp(cfg);
  rx->SetRecvHandler([](const Datagram&) {});
  tx->PostSendBatch({MakeWr(1, 0, 10)});
  EXPECT_DEATH(rack.sim.Run(), "CHECK");
}

TEST(Verbs, MulticastDeliversToAllButSender) {
  TestRack rack(4);
  QpConfig cfg;
  UdQp* tx = rack.endpoints[0]->CreateQp(cfg);
  int got = 0;
  for (int n = 1; n < 4; ++n) {
    UdQp* rx = rack.endpoints[static_cast<std::size_t>(n)]->CreateQp(cfg);
    rx->PostRecvs(4);
    rx->SetRecvHandler([&](const Datagram&) { ++got; });
  }
  // Sender also has a QP but should not receive its own multicast.
  tx->PostRecvs(4);
  tx->SetRecvHandler([&](const Datagram&) { FAIL() << "loopback delivery"; });
  tx->PostMulticast(MakeWr(0, 0, 52), {0, 1, 2, 3});
  rack.sim.Run();
  EXPECT_EQ(got, 3);
}

TEST(Verbs, RegisteredRecvMemoryScalesWithQps) {
  TestRack rack;
  QpConfig cfg;
  cfg.recv_queue_depth = 100;
  cfg.recv_buffer_bytes = 1000;
  rack.endpoints[0]->CreateQp(cfg);
  EXPECT_EQ(rack.endpoints[0]->registered_recv_bytes(), 100'000u);
  cfg.qpn = 1;
  rack.endpoints[0]->CreateQp(cfg);
  EXPECT_EQ(rack.endpoints[0]->registered_recv_bytes(), 200'000u);
  EXPECT_EQ(rack.endpoints[0]->num_qps(), 2);
}

TEST(Verbs, PollSweepCostGrowsWithConnections) {
  TestRack rack;
  QpConfig cfg;
  for (std::uint16_t q = 0; q < 4; ++q) {
    cfg.qpn = q;
    rack.endpoints[0]->CreateQp(cfg);
  }
  const SimTime four = rack.endpoints[0]->PollSweepCost();
  for (std::uint16_t q = 4; q < 32; ++q) {
    cfg.qpn = q;
    rack.endpoints[0]->CreateQp(cfg);
  }
  const SimTime thirty_two = rack.endpoints[0]->PollSweepCost();
  EXPECT_GT(thirty_two, four);
}

TEST(Verbs, MinAvailableRecvsTracksHighWater) {
  TestRack rack;
  QpConfig cfg;
  UdQp* tx = rack.endpoints[0]->CreateQp(cfg);
  UdQp* rx = rack.endpoints[1]->CreateQp(cfg);
  rx->PostRecvs(3);
  rx->SetRecvHandler([](const Datagram&) {});
  tx->PostSendBatch({MakeWr(1, 0, 4), MakeWr(1, 0, 4)});
  rack.sim.Run();
  EXPECT_EQ(rx->min_available_recvs(), 1u);
}

// ---------------------------------------------------------------------------
// Flow control
// ---------------------------------------------------------------------------

TEST(CreditPool, AcquireAndRelease) {
  CreditPool pool(3, 2);
  EXPECT_TRUE(pool.TryAcquire(1));
  EXPECT_TRUE(pool.TryAcquire(1));
  EXPECT_FALSE(pool.TryAcquire(1));
  EXPECT_EQ(pool.available(1), 0);
  EXPECT_TRUE(pool.TryAcquire(2));  // peers independent
  pool.Release(1);
  EXPECT_TRUE(pool.TryAcquire(1));
}

TEST(CreditPoolDeathTest, OverReleaseAborts) {
  CreditPool pool(2, 1);
  EXPECT_DEATH(pool.Release(0), "CHECK");
}

TEST(CreditUpdateBatcher, FiresEveryBatch) {
  CreditUpdateBatcher batcher(2, 3);
  EXPECT_FALSE(batcher.OnReceived(0));
  EXPECT_FALSE(batcher.OnReceived(0));
  EXPECT_TRUE(batcher.OnReceived(0));
  EXPECT_EQ(batcher.pending(0), 0);
  // Independent per peer.
  EXPECT_FALSE(batcher.OnReceived(1));
  EXPECT_FALSE(batcher.OnReceived(0));
}

TEST(CreditFlow, EndToEndNeverUnderflowsRecvQueue) {
  // Sender respects a credit pool sized to the receiver's posted receives and
  // reposts happen on credit-update receipt: the DCHECK in verbs must hold.
  TestRack rack;
  const int kCredits = 4;
  const int kMessages = 100;
  QpConfig data_cfg;
  data_cfg.qpn = 0;
  data_cfg.recv_queue_depth = kCredits;
  QpConfig credit_cfg;
  credit_cfg.qpn = 1;
  UdQp* tx = rack.endpoints[0]->CreateQp(data_cfg);
  UdQp* tx_credit_rx = rack.endpoints[0]->CreateQp(credit_cfg);
  UdQp* rx = rack.endpoints[1]->CreateQp(data_cfg);
  UdQp* rx_credit_tx = rack.endpoints[1]->CreateQp(credit_cfg);
  rx->PostRecvs(kCredits);
  tx_credit_rx->PostRecvs(64);

  CreditPool credits(2, kCredits);
  CreditUpdateBatcher batcher(2, 2);
  int sent = 0;
  int received = 0;

  std::function<void()> pump = [&] {
    while (sent < kMessages && credits.TryAcquire(1)) {
      tx->PostSendBatch({MakeWr(1, 0, 8)});
      ++sent;
    }
  };
  rx->SetRecvHandler([&](const Datagram& dg) {
    ++received;
    rx->PostRecvs(1);  // repost immediately; credit returns via batched update
    if (batcher.OnReceived(dg.src)) {
      UdQp::SendWr credit_wr;
      credit_wr.dst = dg.src;
      credit_wr.dst_qpn = 1;
      credit_wr.cls = TrafficClass::kCreditUpdate;
      credit_wr.header_bytes = 31;
      rx_credit_tx->PostSendBatch({credit_wr});
    }
  });
  tx_credit_rx->SetRecvHandler([&](const Datagram& dg) {
    credits.Release(dg.src, batcher.batch());
    pump();
  });
  pump();
  rack.sim.Run();
  EXPECT_EQ(received, kMessages);
  EXPECT_EQ(sent, kMessages);
}

}  // namespace
}  // namespace cckvs
