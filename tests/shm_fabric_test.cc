// Shared-memory ring framing (runtime/shm_fabric.cc).
//
// The shm backend encodes each frame straight into its lane's ring and
// decodes it from the ring's own bytes; only a frame whose body wraps the
// ring's end goes through a scratch buffer.  These tests drive a 2-node
// fabric with a ring of a few hundred bytes, so frames land in every
// position relative to the ring's end, and check that every frame comes out
// as it went in, in order, and that a malformed frame is rejected and
// skipped on both decode paths.

#include <unistd.h>

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/shm_fabric.h"
#include "src/runtime/wire_codec.h"

namespace cckvs {
namespace {

constexpr std::size_t kRingBytes = 256;

std::unique_ptr<TransportFabric> MakeTinyShm(const char* tag) {
  static int counter = 0;
  FabricConfig config;
  config.num_nodes = 2;
  TransportOptions opts;
  opts.kind = TransportKind::kShm;
  opts.shm_name = "/cckvs_shmlane_" + std::to_string(getpid()) + "_" + tag + "_" +
                  std::to_string(counter++);
  opts.shm_ring_bytes = kRingBytes;
  std::string error;
  auto fabric = MakeShmFabric(config, opts, &error);
  EXPECT_NE(fabric, nullptr) << error;
  return fabric;
}

Buffer Encoded(const WireBatch& batch) {
  Buffer raw;
  SerializeWireBatch(batch, &raw);
  return raw;
}

// Where a frame of `frame` bytes ([u32 len] + body) starting at ring offset
// `pos` lies relative to the ring's end.
enum Placement { kContiguous, kPrefixStraddles, kBodyStraddles, kBodyEndsAtEnd };

Placement PlacementOf(std::size_t pos, std::size_t frame) {
  if (pos + 4 > kRingBytes) {
    return kPrefixStraddles;
  }
  const std::size_t body = (pos + 4) % kRingBytes;
  const std::size_t end = body + (frame - 4);
  if (end > kRingBytes) {
    return kBodyStraddles;
  }
  return end == kRingBytes && body != 0 ? kBodyEndsAtEnd : kContiguous;
}

// A frame of `bytes` exactly from node 0: one update whose value fills the
// rest.
WireBatch FrameOfBytes(std::size_t bytes) {
  WireBatch probe;
  probe.Append(UpdateMsg{1, "", Timestamp{1, 0}});
  const std::size_t empty = 4 + WireBatchBytes(probe);
  EXPECT_GE(bytes, empty);
  WireBatch batch;
  batch.Append(UpdateMsg{1, std::string(bytes - empty, 'f'), Timestamp{1, 0}});
  return batch;
}

// Every frame drains equal to the one delivered, in FIFO order, whether it
// sits whole before the ring's end, has its length prefix or its body split
// by the end, or ends exactly at the end.
TEST(ShmLane, FramesRoundTripAtEveryPlacementAroundTheRingEnd) {
  auto fabric = MakeTinyShm("wrap");
  ASSERT_NE(fabric, nullptr);
  std::mt19937_64 rng(0x5a1e);
  std::array<int, 4> placements{};
  std::size_t tail = 0;
  std::vector<WireBatch> out;
  for (int round = 0; round < 400; ++round) {
    // Up to four frames in flight (never a full ring: Deliver would wait for
    // a consumer this thread plays), then drain them all.
    std::vector<Buffer> sent;
    std::size_t in_flight = 0;
    for (int f = 0; f < 4; ++f) {
      WireBatch batch;
      batch.src = 0;
      const std::size_t count = 1 + rng() % 3;
      for (std::size_t i = 0; i < count; ++i) {
        const Key key = rng();
        const Timestamp ts{static_cast<std::uint32_t>(rng()), 0};
        switch (rng() % 3) {
          case 0:
            batch.Append(UpdateMsg{key, std::string(rng() % 48, 'v'), ts});
            break;
          case 1:
            batch.Append(InvalidateMsg{key, ts});
            break;
          default:
            batch.Append(AckMsg{key, ts});
            break;
        }
      }
      const std::size_t frame = 4 + WireBatchBytes(batch);
      if (in_flight + frame > kRingBytes) {
        break;
      }
      ++placements[PlacementOf(tail % kRingBytes, frame)];
      tail += frame;
      in_flight += frame;
      sent.push_back(Encoded(batch));
      fabric->Deliver(1, std::move(batch));
    }
    out.clear();
    ASSERT_EQ(fabric->Drain(1, &out, 16), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(Encoded(out[i]), sent[i]) << "round " << round << " frame " << i;
      fabric->batch_pool().Recycle(std::move(out[i]));
    }
    ASSERT_EQ(fabric->InboundDepth(1), 0u);
  }
  EXPECT_FALSE(fabric->faulted()) << fabric->error();
  EXPECT_GT(placements[kContiguous], 0);
  EXPECT_GT(placements[kPrefixStraddles], 0);
  EXPECT_GT(placements[kBodyStraddles], 0);
  EXPECT_GT(placements[kBodyEndsAtEnd], 0);
}

// A frame the decoder rejects latches an "undecodable" error and is skipped:
// head moves past it, and the next frame on the lane drains intact.  The
// malformed frame is an RPC request whose op byte is out of range, which
// the encoder writes as given and the decoder refuses.  It is put once
// whole before the ring's end (decoded in place) and once with its body
// split by the end (decoded from the scratch).
TEST(ShmLane, UndecodableFrameLatchesErrorAndIsSkipped) {
  RpcRequest bad;
  bad.op = static_cast<OpType>(9);
  bad.value = "x";
  WireBatch bad_batch;
  bad_batch.Append(bad);
  const std::size_t bad_frame = 4 + WireBatchBytes(bad_batch);
  WireBatch good;
  good.Append(TermProbeMsg{7});

  for (const bool wrapped : {false, true}) {
    SCOPED_TRACE(wrapped ? "wrapped" : "contiguous");
    auto fabric = MakeTinyShm(wrapped ? "bad_wrapped" : "bad_whole");
    ASSERT_NE(fabric, nullptr);
    std::vector<WireBatch> out;
    if (wrapped) {
      // A filler frame moves the lane so the bad frame's prefix fits before
      // the end and its body does not.
      const std::size_t at = kRingBytes - 4 - bad_frame / 2;
      ASSERT_EQ(PlacementOf(at, bad_frame), kBodyStraddles);
      fabric->Deliver(1, FrameOfBytes(at));
      ASSERT_EQ(fabric->Drain(1, &out, 16), 1u);
      out.clear();
    } else {
      ASSERT_EQ(PlacementOf(0, bad_frame), kContiguous);
    }
    fabric->Deliver(1, WireBatch(bad_batch));
    fabric->Deliver(1, WireBatch(good));
    EXPECT_EQ(fabric->Drain(1, &out, 16), 1u);
    EXPECT_TRUE(fabric->faulted());
    EXPECT_NE(fabric->error().find("undecodable"), std::string::npos) << fabric->error();
    EXPECT_EQ(fabric->InboundDepth(1), 0u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(Encoded(out[0]), Encoded(good));
  }
}

}  // namespace
}  // namespace cckvs
