// Wire-format property tests (runtime/wire_codec.h).
//
// The cross-process backends trust these bytes completely: a frame that
// round-trips wrong corrupts protocol state silently, and a decoder that
// aborts (or reads past the end) on a truncated frame turns a flaky peer
// into a crashed node.  So the codec gets the full property treatment:
// randomized round-trips over every message variant, rejection at EVERY
// truncation point, trailing-garbage rejection, and byte-level pins of the
// little-endian header layout (the on-wire ABI must not drift with the
// host's endianness or a refactor).

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/wire_codec.h"

namespace cckvs {
namespace {

std::string RandomString(std::mt19937_64& rng, std::size_t max_len) {
  std::uniform_int_distribution<std::size_t> len_dist(0, max_len);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::string s(len_dist(rng), '\0');
  for (char& c : s) {
    c = static_cast<char>(byte_dist(rng));
  }
  return s;
}

Timestamp RandomTs(std::mt19937_64& rng) {
  return Timestamp{static_cast<std::uint32_t>(rng()),
                   static_cast<NodeId>(rng() % 9)};
}

// One random message of each variant per call; the index picks the type.
WireBody RandomBody(std::mt19937_64& rng, int variant) {
  switch (variant) {
    case 0:
      return UpdateMsg{rng(), RandomString(rng, 64), RandomTs(rng)};
    case 1:
      return InvalidateMsg{rng(), RandomTs(rng)};
    case 2:
      return AckMsg{rng(), RandomTs(rng)};
    case 3: {
      HotSetAnnounceMsg hot;
      hot.epoch = rng();
      hot.keys.resize(rng() % 32);
      for (Key& k : hot.keys) {
        k = rng();
      }
      return hot;
    }
    case 4: {
      FillMsg fill;
      fill.key = rng();
      fill.ts = RandomTs(rng);
      fill.epoch = rng();
      fill.value = RandomString(rng, 64);
      return fill;
    }
    case 5:
      return EpochInstalledMsg{rng()};
    case 6: {
      RpcRequest req;
      req.op_id = static_cast<std::uint32_t>(rng());
      req.op = rng() % 2 == 0 ? OpType::kGet : OpType::kPut;
      req.key = rng();
      req.value = req.op == OpType::kPut ? RandomString(rng, 64) : "";
      req.trace_id = rng();  // piggybacked trace context (runtime/tracing.h)
      req.parent_span = rng();
      return req;
    }
    case 7: {
      RpcResponse resp;
      resp.op_id = static_cast<std::uint32_t>(rng());
      resp.ts = RandomTs(rng);
      resp.gated = rng() % 2 == 0;
      resp.value = RandomString(rng, 64);
      resp.trace_id = rng();
      return resp;
    }
    case 8:
      return TermProbeMsg{static_cast<std::uint32_t>(rng())};
    case 9: {
      TermStatusMsg s;
      s.round = static_cast<std::uint32_t>(rng());
      s.rank = static_cast<NodeId>(rng() % 9);
      s.done = rng() % 2 == 0;
      s.sent = rng();
      s.processed = rng();
      return s;
    }
    default:
      return TermHaltMsg{static_cast<std::uint32_t>(rng())};
  }
}

constexpr int kVariants = 11;

bool SameBody(const WireBody& a, const WireBody& b) {
  if (a.index() != b.index()) {
    return false;
  }
  Buffer ba;
  Buffer bb;
  SerializeWireBody(a, &ba);
  SerializeWireBody(b, &bb);
  return ba == bb;  // the codec is canonical: equal bytes <=> equal values
}

TEST(WireCodec, BodyRoundTripAllVariantsRandomized) {
  std::mt19937_64 rng(0xc0dec);
  for (int iter = 0; iter < 200; ++iter) {
    for (int v = 0; v < kVariants; ++v) {
      const WireBody body = RandomBody(rng, v);
      Buffer raw;
      SerializeWireBody(body, &raw);

      SafeReader r(raw.data(), raw.size());
      WireBody decoded;
      ASSERT_TRUE(TryDeserializeWireBody(&r, &decoded)) << "variant " << v;
      ASSERT_TRUE(r.AtEnd()) << "variant " << v << " left trailing bytes";
      EXPECT_TRUE(SameBody(body, decoded)) << "variant " << v;
      EXPECT_EQ(decoded.index(), body.index());
    }
  }
}

TEST(WireCodec, BatchRoundTripRandomized) {
  std::mt19937_64 rng(0xba7c4);
  for (int iter = 0; iter < 100; ++iter) {
    WireBatch batch;
    batch.src = static_cast<NodeId>(rng() % 9);
    const std::size_t count = rng() % 17;
    for (std::size_t i = 0; i < count; ++i) {
      batch.Append(RandomBody(rng, static_cast<int>(rng() % kVariants)));
    }

    Buffer raw;
    SerializeWireBatch(batch, &raw);
    WireBatch decoded;
    ASSERT_TRUE(TryDeserializeWireBatch(raw, &decoded));
    ASSERT_EQ(decoded.src, batch.src);
    ASSERT_EQ(decoded.size(), batch.size());
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(SameBody(batch[i], decoded[i])) << "msg " << i;
    }
  }
}

// The string a body carries, if its alternative carries one.
std::string* StringOf(WireBody* body) {
  if (auto* m = std::get_if<UpdateMsg>(body)) {
    return &m->value;
  }
  if (auto* m = std::get_if<FillMsg>(body)) {
    return &m->value;
  }
  if (auto* m = std::get_if<RpcRequest>(body)) {
    return &m->value;
  }
  if (auto* m = std::get_if<RpcResponse>(body)) {
    return &m->value;
  }
  return nullptr;
}

// WireBatchBytes is the exact size SerializeWireBatch produces, and
// EncodeWireBatch writes exactly that many bytes at its destination: the shm
// ring encodes a frame in place on that promise, so a byte written past the
// sized end would corrupt the next frame.  Batches mix every alternative,
// with empty, random and long strings.
TEST(WireCodec, BatchBytesIsTheExactEncodedSize) {
  constexpr std::size_t kGuard = 32;
  constexpr std::size_t kLongString = 4096;
  std::mt19937_64 rng(0x51ced);
  std::vector<int> seen(kVariants, 0);
  for (int iter = 0; iter < 300; ++iter) {
    WireBatch batch;
    batch.src = static_cast<NodeId>(rng() % 9);
    const std::size_t count = rng() % 25;
    for (std::size_t i = 0; i < count; ++i) {
      const int v = static_cast<int>(rng() % kVariants);
      ++seen[static_cast<std::size_t>(v)];
      WireBody body = RandomBody(rng, v);
      if (std::string* s = StringOf(&body)) {
        switch (rng() % 3) {
          case 0:
            s->clear();
            break;
          case 1:
            s->assign(kLongString, static_cast<char>(rng()));
            break;
          default:
            break;
        }
      }
      batch.Append(std::move(body));
    }

    Buffer raw;
    SerializeWireBatch(batch, &raw);
    const std::size_t bytes = WireBatchBytes(batch);
    ASSERT_EQ(bytes, raw.size()) << "iteration " << iter;
    for (const std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xff}}) {
      Buffer guarded(bytes + 2 * kGuard, fill);
      EncodeWireBatch(batch, guarded.data() + kGuard);
      for (std::size_t i = 0; i < kGuard; ++i) {
        ASSERT_EQ(guarded[i], fill) << "wrote " << kGuard - i << " bytes before dst";
        ASSERT_EQ(guarded[kGuard + bytes + i], fill) << "wrote past byte " << bytes;
      }
      ASSERT_TRUE(std::equal(raw.begin(), raw.end(), guarded.begin() + kGuard));
    }
  }
  for (int v = 0; v < kVariants; ++v) {
    EXPECT_GT(seen[static_cast<std::size_t>(v)], 0) << "variant " << v;
  }
}

// Every proper prefix of a valid frame must be rejected — no abort, no
// over-read, just `false`.  This is the property that turns a peer's short
// write into a clean transport error.
TEST(WireCodec, TruncatedBodyRejectedAtEveryPrefixLength) {
  std::mt19937_64 rng(0x7256);
  for (int v = 0; v < kVariants; ++v) {
    const WireBody body = RandomBody(rng, v);
    Buffer raw;
    SerializeWireBody(body, &raw);
    for (std::size_t len = 0; len < raw.size(); ++len) {
      SafeReader r(raw.data(), len);
      WireBody decoded;
      EXPECT_FALSE(TryDeserializeWireBody(&r, &decoded))
          << "variant " << v << " accepted a " << len << "/" << raw.size()
          << "-byte prefix";
    }
  }
}

TEST(WireCodec, TruncatedBatchRejectedAtEveryPrefixLength) {
  std::mt19937_64 rng(0x7257);
  WireBatch batch;
  batch.src = 3;
  for (int v = 0; v < kVariants; ++v) {
    batch.Append(RandomBody(rng, v));
  }
  Buffer raw;
  SerializeWireBatch(batch, &raw);
  for (std::size_t len = 0; len < raw.size(); ++len) {
    WireBatch decoded;
    EXPECT_FALSE(TryDeserializeWireBatch(raw.data(), len, &decoded))
        << "accepted a " << len << "/" << raw.size() << "-byte prefix";
  }
}

TEST(WireCodec, TrailingGarbageRejected) {
  WireBatch batch;
  batch.src = 2;
  batch.Append(WireBody{TermHaltMsg{7}});
  Buffer raw;
  SerializeWireBatch(batch, &raw);
  WireBatch decoded;
  ASSERT_TRUE(TryDeserializeWireBatch(raw, &decoded));
  raw.push_back(0xee);
  EXPECT_FALSE(TryDeserializeWireBatch(raw, &decoded));
}

TEST(WireCodec, UnknownTagRejected) {
  Buffer raw;
  raw.push_back(200);  // far past every assigned tag
  raw.push_back(0);
  SafeReader r(raw.data(), raw.size());
  WireBody decoded;
  EXPECT_FALSE(TryDeserializeWireBody(&r, &decoded));
}

TEST(WireCodec, MalformedRpcOpRejected) {
  RpcRequest req;
  req.op = OpType::kPut;
  req.value = "x";
  Buffer raw;
  SerializeWireBody(WireBody{req}, &raw);
  raw[5] = 9;  // the op byte: [tag u8][op_id u32][op u8]...
  SafeReader r(raw.data(), raw.size());
  WireBody decoded;
  EXPECT_FALSE(TryDeserializeWireBody(&r, &decoded));
}

TEST(WireCodec, MalformedRpcGatedFlagRejected) {
  RpcResponse resp;
  resp.value = "x";
  Buffer raw;
  SerializeWireBody(WireBody{resp}, &raw);
  raw[10] = 7;  // the gated byte: [tag u8][op_id u32][clock u32][writer u8][gated u8]
  SafeReader r(raw.data(), raw.size());
  WireBody decoded;
  EXPECT_FALSE(TryDeserializeWireBody(&r, &decoded));
}

// Byte-level ABI pins: the wire layout is little-endian regardless of host,
// and field order is part of the contract (append-only evolution).
TEST(WireCodec, HeaderFieldsAreEndiannessStable) {
  UpdateMsg upd;
  upd.key = 0x1122334455667788ull;
  upd.ts = Timestamp{0xaabbccdd, 5};
  upd.value = "AB";
  Buffer raw;
  SerializeWireBody(WireBody{upd}, &raw);

  const std::uint8_t expect[] = {
      0x01,                                            // WireTag::kUpdate
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // key, little-endian
      0xdd, 0xcc, 0xbb, 0xaa,                          // ts.clock, little-endian
      0x05,                                            // ts.writer
      0x02, 0x00, 0x00, 0x00,                          // value length u32 le
      'A', 'B',
  };
  ASSERT_EQ(raw.size(), sizeof(expect));
  for (std::size_t i = 0; i < sizeof(expect); ++i) {
    EXPECT_EQ(raw[i], expect[i]) << "byte " << i;
  }
}

// The RPC bodies carry the piggybacked trace context LAST (append-only ABI
// evolution): these pins freeze the full layouts so neither a field reorder
// nor a width change can slip through, and prove untraced peers interoperate
// (trace fields serialize as zeros, never as absent bytes).
TEST(WireCodec, RpcRequestLayoutWithTraceContextIsPinned) {
  RpcRequest req;
  req.op_id = 0x0a0b0c0d;
  req.op = OpType::kPut;
  req.key = 0x1122334455667788ull;
  req.value = "V";
  req.trace_id = 0x0102030405060708ull;
  req.parent_span = 0x1112131415161718ull;
  Buffer raw;
  SerializeWireBody(WireBody{req}, &raw);

  const std::uint8_t expect[] = {
      0x07,                                            // WireTag::kRpcRequest
      0x0d, 0x0c, 0x0b, 0x0a,                          // op_id u32 le
      0x01,                                            // op (kPut)
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // key u64 le
      0x01, 0x00, 0x00, 0x00,                          // value length u32 le
      'V',
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // trace_id u64 le
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,  // parent_span u64 le
  };
  ASSERT_EQ(raw.size(), sizeof(expect));
  for (std::size_t i = 0; i < sizeof(expect); ++i) {
    EXPECT_EQ(raw[i], expect[i]) << "byte " << i;
  }
}

TEST(WireCodec, RpcResponseLayoutWithTraceContextIsPinned) {
  RpcResponse resp;
  resp.op_id = 0x0a0b0c0d;
  resp.ts = Timestamp{0xaabbccdd, 3};
  resp.gated = true;
  resp.value = "W";
  resp.trace_id = 0x0102030405060708ull;
  Buffer raw;
  SerializeWireBody(WireBody{resp}, &raw);

  const std::uint8_t expect[] = {
      0x08,                                            // WireTag::kRpcResponse
      0x0d, 0x0c, 0x0b, 0x0a,                          // op_id u32 le
      0xdd, 0xcc, 0xbb, 0xaa,                          // ts.clock u32 le
      0x03,                                            // ts.writer
      0x01,                                            // gated
      0x01, 0x00, 0x00, 0x00,                          // value length u32 le
      'W',
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // trace_id u64 le
  };
  ASSERT_EQ(raw.size(), sizeof(expect));
  for (std::size_t i = 0; i < sizeof(expect); ++i) {
    EXPECT_EQ(raw[i], expect[i]) << "byte " << i;
  }
}

TEST(WireCodec, BatchHeaderIsEndiannessStable) {
  WireBatch batch;
  batch.src = 7;
  batch.Append(WireBody{TermProbeMsg{0x01020304}});
  Buffer raw;
  SerializeWireBatch(batch, &raw);

  const std::uint8_t expect[] = {
      0x07,                    // src
      0x01, 0x00,              // count u16 le
      0x09,                    // WireTag::kTermProbe
      0x04, 0x03, 0x02, 0x01,  // round u32 le
  };
  ASSERT_EQ(raw.size(), sizeof(expect));
  for (std::size_t i = 0; i < sizeof(expect); ++i) {
    EXPECT_EQ(raw[i], expect[i]) << "byte " << i;
  }
  // The simulator prices a lone control message as its frame less this
  // header, so the constant must match the layout above.
  EXPECT_EQ(kWireBatchHeaderBytes, 3u);
}

}  // namespace
}  // namespace cckvs
