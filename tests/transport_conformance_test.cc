// Transport-backend conformance suite (runtime/fabric.h).
//
// One contract, three backends: every invariant the engines, the epoch
// gate+barrier and the SC/Lin checkers rely on is executed here against the
// in-process channels, the shared-memory rings and the socket streams — the
// same code, parameterized by TransportKind.  The invariants:
//
//   * per-peer FIFO across batch boundaries AND through credit parking
//     (a parked broadcast may not be overtaken by a later send to the peer);
//   * exact per-message credit accounting (§6.3 counts messages, never
//     batches, and every credit comes back);
//   * message-granular termination counters (data_sent/data_processed, Term*
//     control excluded) that balance after a drain;
//   * idle- and deadline-flush backstops (no message sleeps in an open batch);
//   * wakeup-once-per-batch (wakeups ≤ batches pushed; zero without parking).
//
// The shm and socket backends deliver asynchronously (ring + doorbell,
// rx thread), so assertions about arrival poll with a deadline instead of
// assuming synchronous delivery.

#include <unistd.h>

#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/transport.h"

namespace cckvs {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::chrono::seconds kDeadline{10};

UpdateMsg Upd(Key key, std::uint32_t clock, NodeId writer = 0) {
  return UpdateMsg{key, "v" + std::to_string(clock), Timestamp{clock, writer}};
}

class ConformanceTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  LiveTransport::Config Cfg(int nodes, bool coalescing = false, int max_batch = 4) {
    LiveTransport::Config c;
    c.num_nodes = nodes;
    c.bcast_credits_per_peer = 4;
    c.credit_update_batch = 2;
    c.channel_capacity = 256;
    c.coalescing = coalescing;
    c.coalesce_max_batch = max_batch;
    c.transport.kind = GetParam();
    // Unique per test process + instantiation: concurrent ctest jobs must not
    // attach to each other's regions.
    static int counter = 0;
    c.transport.shm_name = "/cckvs_conf_" + std::to_string(getpid()) + "_" +
                           std::to_string(counter++);
    c.transport.shm_ring_bytes = 1 << 16;
    return c;
  }

  // Polls `ep` until `n` messages arrive (appending keys in delivery order)
  // or the deadline expires.  Async backends need the retry loop.
  std::vector<Key> CollectKeys(LiveTransport::Endpoint& ep, std::size_t n) {
    std::vector<Key> keys;
    const auto deadline = Clock::now() + kDeadline;
    while (keys.size() < n && Clock::now() < deadline) {
      ep.Poll(64, [&keys](NodeId, const WireBody& body) {
        if (const auto* upd = std::get_if<UpdateMsg>(&body)) {
          keys.push_back(upd->key);
        } else if (const auto* inv = std::get_if<InvalidateMsg>(&body)) {
          keys.push_back(inv->key);
        } else if (const auto* ack = std::get_if<AckMsg>(&body)) {
          keys.push_back(ack->key);
        } else if (const auto* req = std::get_if<RpcRequest>(&body)) {
          keys.push_back(req->key);
        }
      });
      if (keys.size() < n) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    return keys;
  }

  // Spins until `cond` holds or the deadline expires; returns the verdict.
  template <typename Cond>
  bool Eventually(Cond&& cond) {
    const auto deadline = Clock::now() + kDeadline;
    while (!cond()) {
      if (Clock::now() >= deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return true;
  }
};

TEST_P(ConformanceTest, FabricConstructs) {
  LiveTransport t(Cfg(3));
  ASSERT_TRUE(t.ok()) << t.init_error();
  EXPECT_TRUE(t.fabric().error().empty());
  EXPECT_FALSE(t.fabric().faulted());
}

// FIFO per (src, dst) lane must survive batch boundaries: messages split
// across two shipped batches arrive in send order.
TEST_P(ConformanceTest, FifoAcrossBatchBoundaries) {
  LiveTransport::Config c = Cfg(2, /*coalescing=*/true, /*max_batch=*/3);
  c.bcast_credits_per_peer = 16;  // the credit pool is not under test here
  LiveTransport t(c);
  ASSERT_TRUE(t.ok()) << t.init_error();
  auto& sender = t.endpoint(0);

  // 7 messages at cap 3: batches of 3+3 ship on the size cap, the seventh on
  // the explicit boundary flush — three batches, one lane.
  for (std::uint32_t i = 0; i < 7; ++i) {
    sender.BroadcastUpdate(Upd(100 + i, i + 1));
  }
  sender.FlushBatches(FlushCause::kBoundary);

  const std::vector<Key> keys = CollectKeys(t.endpoint(1), 7);
  ASSERT_EQ(keys.size(), 7u);
  for (std::uint32_t i = 0; i < 7; ++i) {
    EXPECT_EQ(keys[i], 100 + i) << "position " << i;
  }
}

// A broadcast parked on exhausted credits must not be overtaken by anything
// sent to that peer later — parked traffic keeps its place in the lane.
TEST_P(ConformanceTest, FifoThroughCreditParking) {
  LiveTransport t(Cfg(2));
  ASSERT_TRUE(t.ok()) << t.init_error();
  auto& sender = t.endpoint(0);
  auto& receiver = t.endpoint(1);

  // Exhaust the 4 credits, then park two more broadcasts behind them.
  for (std::uint32_t i = 0; i < 6; ++i) {
    sender.BroadcastUpdate(Upd(200 + i, i + 1));
  }
  sender.FlushBatches(FlushCause::kBoundary);
  EXPECT_EQ(sender.credit_parks(), 2u);

  // Drain the first four; their credit returns release the parked two.
  std::vector<Key> keys = CollectKeys(receiver, 4);
  ASSERT_TRUE(Eventually([&] {
    sender.FlushPending();
    sender.FlushBatches(FlushCause::kBoundary);
    return sender.NothingPending();
  }));

  const std::vector<Key> rest = CollectKeys(receiver, 2);
  keys.insert(keys.end(), rest.begin(), rest.end());
  ASSERT_EQ(keys.size(), 6u);
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(keys[i], 200 + i) << "position " << i;
  }
}

// §6.3 accounting is per message: after every message is drained, every
// credit must be back home — the sender can broadcast at full rate again.
TEST_P(ConformanceTest, ExactPerMessageCreditAccounting) {
  LiveTransport t(Cfg(2, /*coalescing=*/true, /*max_batch=*/4));
  ASSERT_TRUE(t.ok()) << t.init_error();
  auto& sender = t.endpoint(0);
  auto& receiver = t.endpoint(1);

  // Two rounds of 4 (the full pool) — 8 credited messages in coalesced
  // batches; batching must not change the credit math.
  for (int round = 0; round < 2; ++round) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      sender.BroadcastUpdate(Upd(300 + i, static_cast<std::uint32_t>(round * 4 + i + 1)));
    }
    sender.FlushBatches(FlushCause::kBoundary);
    ASSERT_EQ(CollectKeys(receiver, 4).size(), 4u);
    // credit_update_batch = 2: 4 drained messages return credits in two
    // batched updates; the pool refills completely.  Wait for all 4: socket
    // credit frames arrive asynchronously, and starting the next round on
    // the first returned batch would park the round's last two updates.
    ASSERT_TRUE(Eventually([&] { return sender.AvailableCredits(1) == 4; }));
  }
  EXPECT_EQ(receiver.credit_returns(), 4u);  // 8 messages / batch of 2
  EXPECT_EQ(sender.credit_parks(), 0u);
}

// The termination counters count messages — not batches, not Term* control —
// and balance exactly once every message has been processed.
TEST_P(ConformanceTest, TerminationCountsAreMessageGranular) {
  LiveTransport t(Cfg(3, /*coalescing=*/true, /*max_batch=*/8));
  ASSERT_TRUE(t.ok()) << t.init_error();
  auto& sender = t.endpoint(0);
  auto& rx1 = t.endpoint(1);
  auto& rx2 = t.endpoint(2);

  sender.BroadcastUpdate(Upd(1, 1));  // 2 messages (one per peer)
  sender.SendAck(1, AckMsg{42, Timestamp{1, 0}});
  sender.SendControl(2, TermProbeMsg{1});
  EXPECT_EQ(sender.data_sent(), 3u);  // counted while still in open batches
  sender.FlushBatches(FlushCause::kBoundary);
  EXPECT_EQ(sender.data_sent(), 3u);  // shipping does not change the count

  ASSERT_EQ(CollectKeys(rx1, 2).size(), 2u);
  EXPECT_EQ(rx1.data_processed(), 2u);
  ASSERT_EQ(CollectKeys(rx2, 1).size(), 1u);
  // The probe follows the update on the same FIFO lane; poll it out too.
  ASSERT_TRUE(Eventually([&] {
    rx2.Poll(64, [](NodeId, const WireBody&) {});
    return rx2.messages_received() == 2u;
  }));
  EXPECT_EQ(rx2.data_processed(), 1u);  // the probe is not data
  EXPECT_EQ(sender.data_sent(), rx1.data_processed() + rx2.data_processed());
}

// The pre-sleep idle flush: a message in an open batch must ship before the
// sender's WaitForTraffic sleep — no message sleeps in a batch buffer.
TEST_P(ConformanceTest, IdleFlushBackstop) {
  LiveTransport t(Cfg(2, /*coalescing=*/true, /*max_batch=*/16));
  ASSERT_TRUE(t.ok()) << t.init_error();
  auto& sender = t.endpoint(0);

  sender.BroadcastUpdate(Upd(7, 1));
  EXPECT_FALSE(sender.NothingPending());  // sits in the open batch
  sender.WaitForTraffic(std::chrono::microseconds(1));
  EXPECT_TRUE(sender.NothingPending());

  EXPECT_EQ(CollectKeys(t.endpoint(1), 1).size(), 1u);
  EXPECT_EQ(sender.coalescer().flushes(FlushCause::kIdle), 1u);
}

// The deadline flush: with a hold window, boundary flushes keep sub-cap
// batches open until the deadline expires, then ship them.
TEST_P(ConformanceTest, DeadlineFlushBackstop) {
  LiveTransport::Config c = Cfg(2, /*coalescing=*/true, /*max_batch=*/16);
  c.coalesce_flush_deadline_us = 1000;
  std::uint64_t fake_now = 0;
  c.clock_ns = [&fake_now] { return fake_now; };
  LiveTransport t(c);
  ASSERT_TRUE(t.ok()) << t.init_error();
  auto& sender = t.endpoint(0);

  sender.BroadcastUpdate(Upd(9, 1));
  sender.FlushBatches(FlushCause::kBoundary);  // held: deadline not reached
  EXPECT_FALSE(sender.NothingPending());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::size_t early = 0;
  t.endpoint(1).Poll(64, [&early](NodeId, const WireBody&) { ++early; });
  EXPECT_EQ(early, 0u);  // nothing shipped while held

  fake_now = 2'000'000;  // 2ms later: past the 1ms hold
  sender.FlushBatches(FlushCause::kBoundary);
  EXPECT_TRUE(sender.NothingPending());
  EXPECT_EQ(CollectKeys(t.endpoint(1), 1).size(), 1u);
  EXPECT_EQ(sender.coalescer().flushes(FlushCause::kDeadline), 1u);
}

// Wakeups are per delivered batch, and only when the consumer is parked:
// a drain loop that never sleeps sees zero; a parked consumer is woken by
// one batch exactly once (wakeups ≤ batches pushed, and the sleeper returns
// well before its timeout).
TEST_P(ConformanceTest, WakeupOncePerBatch) {
  LiveTransport t(Cfg(2, /*coalescing=*/true, /*max_batch=*/8));
  ASSERT_TRUE(t.ok()) << t.init_error();
  auto& sender = t.endpoint(0);
  auto& receiver = t.endpoint(1);

  // Never parked: deliveries must not count wakeups.
  for (std::uint32_t i = 0; i < 4; ++i) {
    sender.BroadcastUpdate(Upd(400 + i, i + 1));
  }
  sender.FlushBatches(FlushCause::kBoundary);
  ASSERT_EQ(CollectKeys(receiver, 4).size(), 4u);
  EXPECT_EQ(receiver.wakeups(), 0u);

  // Parked: one coalesced batch (4 messages) wakes the sleeper once.
  std::thread waiter([&receiver] {
    receiver.WaitForTraffic(std::chrono::seconds(30));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // let it park
  const auto t0 = Clock::now();
  for (std::uint32_t i = 0; i < 4; ++i) {
    sender.BroadcastUpdate(Upd(500 + i, i + 1));
  }
  sender.FlushBatches(FlushCause::kBoundary);
  waiter.join();
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(10)) << "lost wakeup";
  ASSERT_EQ(CollectKeys(receiver, 4).size(), 4u);
  EXPECT_LE(receiver.wakeups(), receiver.batches_received());
  EXPECT_LE(receiver.wakeups(), 1u);  // one batch, at most one wakeup
}

// Lost-wakeup stress for the doorbell: a consumer that parks between polls
// races a producer delivering single-message batches at random gaps, so
// deliveries land before, during and right after the consumer parks.  A lost
// wakeup strands a message for the whole 30 s park, which the 10 s bound
// catches; every delivery may wake at most once.
TEST_P(ConformanceTest, NoLostWakeupUnderRandomDeliveryGaps) {
  constexpr std::size_t kMessages = 2000;
  LiveTransport t(Cfg(2));  // coalescing off: one message per batch
  ASSERT_TRUE(t.ok()) << t.init_error();
  auto& sender = t.endpoint(0);
  auto& receiver = t.endpoint(1);

  const auto t0 = Clock::now();
  std::size_t received = 0;
  std::thread consumer([&] {
    const auto give_up = Clock::now() + std::chrono::seconds(60);
    while (received < kMessages && Clock::now() < give_up) {
      receiver.WaitForTraffic(std::chrono::seconds(30));
      received += receiver.Poll(64, [](NodeId, const WireBody&) {});
    }
  });
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> gap_us(0, 100);
  for (std::size_t i = 0; i < kMessages; ++i) {
    // Acks ride implicit credits, so the producer never parks on the pool.
    sender.SendAck(1, AckMsg{static_cast<Key>(i), Timestamp{1, 0}});
    std::this_thread::sleep_for(std::chrono::microseconds(gap_us(rng)));
  }
  consumer.join();
  EXPECT_EQ(received, kMessages);
  EXPECT_LT(Clock::now() - t0, kDeadline) << "lost wakeup";
  EXPECT_LE(receiver.wakeups(), receiver.batches_received());
}

// Mixed-type traffic (credited updates/invalidates, uncredited acks and
// direct sends) shares one lane and stays in order end to end.
TEST_P(ConformanceTest, MixedTrafficStaysOrdered) {
  LiveTransport t(Cfg(2, /*coalescing=*/true, /*max_batch=*/3));
  ASSERT_TRUE(t.ok()) << t.init_error();
  auto& sender = t.endpoint(0);

  sender.BroadcastInvalidate(InvalidateMsg{600, Timestamp{1, 0}});
  sender.SendAck(1, AckMsg{601, Timestamp{1, 0}});
  sender.BroadcastUpdate(Upd(602, 2));
  RpcRequest rpc;
  rpc.op_id = 1;
  rpc.key = 603;
  sender.SendDirect(1, WireBody{std::move(rpc)});
  sender.FlushBatches(FlushCause::kBoundary);

  const std::vector<Key> keys = CollectKeys(t.endpoint(1), 4);
  ASSERT_EQ(keys.size(), 4u);
  EXPECT_EQ(keys, (std::vector<Key>{600, 601, 602, 603}));
}

INSTANTIATE_TEST_SUITE_P(Backends, ConformanceTest,
                         ::testing::Values(TransportKind::kInproc,
                                           TransportKind::kShm,
                                           TransportKind::kSocket),
                         [](const ::testing::TestParamInfo<TransportKind>& info) {
                           return std::string(ToString(info.param));
                         });

}  // namespace
}  // namespace cckvs
