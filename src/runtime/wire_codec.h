// WireBatch <-> byte-frame codec for the cross-process transport backends.
//
// The in-process fabric moves WireBatch values directly; the shm-ring and
// socket backends move byte frames, exactly as a real UD send would.  This
// codec is the boundary: little-endian flat encoding via rdma/serialize.h
// (the same writer the simulated fabric uses), one tag byte per message,
// batch framing of
//
//   [u8 src] [u16 count] count x ( [u8 tag] body )
//
// and nothing else — transport-level length prefixes belong to the backend
// (the shm ring and the socket stream each add their own [u32 len]).
//
// Decoding NEVER trusts the buffer: TryDeserializeWireBatch returns false on
// any truncation, trailing garbage, unknown tag or length overflow instead of
// aborting, so a malformed or short frame from a dying peer surfaces as a
// transport error, not corruption (the fault-injection tests drive exactly
// this).  Header fields are endianness-stable by construction — serialize.h
// writes little-endian bytes explicitly, so frames are portable across hosts
// regardless of native byte order.

#ifndef CCKVS_RUNTIME_WIRE_CODEC_H_
#define CCKVS_RUNTIME_WIRE_CODEC_H_

#include <cstdint>
#include <limits>
#include <string>
#include <variant>

#include "src/rdma/serialize.h"
#include "src/runtime/coalescer.h"

namespace cckvs {

// One byte on the wire per message.  Values are load-bearing: they are the
// cross-process ABI, so append — never renumber.
enum class WireTag : std::uint8_t {
  kUpdate = 1,
  kInvalidate = 2,
  kAck = 3,
  kHotSetAnnounce = 4,
  kFill = 5,
  kEpochInstalled = 6,
  kRpcRequest = 7,
  kRpcResponse = 8,
  kTermProbe = 9,
  kTermStatus = 10,
  kTermHalt = 11,
};

// Tag t carries WireBody alternative t - 1, which lets the decoder ready a
// reusable slot before reading the body (WireBatch::AppendSlot).
static_assert(static_cast<std::size_t>(WireTag::kTermHalt) ==
              std::variant_size_v<WireBody>);

// Bounds-checked little-endian reader: every Get returns false instead of
// aborting when the buffer runs out.  The deliberate non-throwing counterpart
// of serialize.h's BufferReader, for frames that cross a trust boundary.
class SafeReader {
 public:
  SafeReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit SafeReader(const Buffer& in) : SafeReader(in.data(), in.size()) {}

  bool GetU8(std::uint8_t* v) { return GetLe(v); }
  bool GetU16(std::uint16_t* v) { return GetLe(v); }
  bool GetU32(std::uint32_t* v) { return GetLe(v); }
  bool GetU64(std::uint64_t* v) { return GetLe(v); }
  bool GetString(std::string* s) {
    std::uint32_t len = 0;
    if (!GetU32(&len) || len > size_ - pos_) {
      return false;
    }
    s->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }
  bool PeekU8(std::uint8_t* v) const {
    if (pos_ == size_) {
      return false;
    }
    *v = data_[pos_];
    return true;
  }
  bool AtEnd() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  bool GetLe(T* out) {
    if (sizeof(T) > size_ - pos_) {
      return false;
    }
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    *out = v;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

namespace wire_internal {

inline void PutTs(BufferWriter* w, Timestamp ts) {
  w->PutU32(ts.clock);
  w->PutU8(ts.writer);
}

inline bool GetTs(SafeReader* r, Timestamp* ts) {
  std::uint8_t writer = 0;
  if (!r->GetU32(&ts->clock) || !r->GetU8(&writer)) {
    return false;
  }
  ts->writer = static_cast<NodeId>(writer);
  return true;
}

}  // namespace wire_internal

inline void SerializeWireBody(const WireBody& body, Buffer* out) {
  using wire_internal::PutTs;
  BufferWriter w(out);
  if (const auto* upd = std::get_if<UpdateMsg>(&body)) {
    w.PutU8(static_cast<std::uint8_t>(WireTag::kUpdate));
    w.PutU64(upd->key);
    PutTs(&w, upd->ts);
    w.PutString(upd->value);
  } else if (const auto* inv = std::get_if<InvalidateMsg>(&body)) {
    w.PutU8(static_cast<std::uint8_t>(WireTag::kInvalidate));
    w.PutU64(inv->key);
    PutTs(&w, inv->ts);
  } else if (const auto* ack = std::get_if<AckMsg>(&body)) {
    w.PutU8(static_cast<std::uint8_t>(WireTag::kAck));
    w.PutU64(ack->key);
    PutTs(&w, ack->ts);
  } else if (const auto* hot = std::get_if<HotSetAnnounceMsg>(&body)) {
    w.PutU8(static_cast<std::uint8_t>(WireTag::kHotSetAnnounce));
    w.PutU64(hot->epoch);
    w.PutU32(static_cast<std::uint32_t>(hot->keys.size()));
    for (const Key k : hot->keys) {
      w.PutU64(k);
    }
  } else if (const auto* fill = std::get_if<FillMsg>(&body)) {
    w.PutU8(static_cast<std::uint8_t>(WireTag::kFill));
    w.PutU64(fill->key);
    PutTs(&w, fill->ts);
    w.PutU64(fill->epoch);
    w.PutString(fill->value);
  } else if (const auto* inst = std::get_if<EpochInstalledMsg>(&body)) {
    w.PutU8(static_cast<std::uint8_t>(WireTag::kEpochInstalled));
    w.PutU64(inst->epoch);
  } else if (const auto* req = std::get_if<RpcRequest>(&body)) {
    w.PutU8(static_cast<std::uint8_t>(WireTag::kRpcRequest));
    w.PutU32(req->op_id);
    w.PutU8(static_cast<std::uint8_t>(req->op));
    w.PutU64(req->key);
    w.PutString(req->value);
    // Trace context rides last (append-only ABI evolution): the id and the
    // requester-side parent span (runtime/tracing.h), 0/0 when untraced.
    w.PutU64(req->trace_id);
    w.PutU64(req->parent_span);
  } else if (const auto* resp = std::get_if<RpcResponse>(&body)) {
    w.PutU8(static_cast<std::uint8_t>(WireTag::kRpcResponse));
    w.PutU32(resp->op_id);
    PutTs(&w, resp->ts);
    w.PutU8(resp->gated ? 1 : 0);
    w.PutString(resp->value);
    w.PutU64(resp->trace_id);
  } else if (const auto* probe = std::get_if<TermProbeMsg>(&body)) {
    w.PutU8(static_cast<std::uint8_t>(WireTag::kTermProbe));
    w.PutU32(probe->round);
  } else if (const auto* status = std::get_if<TermStatusMsg>(&body)) {
    w.PutU8(static_cast<std::uint8_t>(WireTag::kTermStatus));
    w.PutU32(status->round);
    w.PutU8(status->rank);
    w.PutU8(status->done ? 1 : 0);
    w.PutU64(status->sent);
    w.PutU64(status->processed);
  } else {
    const auto& halt = std::get<TermHaltMsg>(body);
    w.PutU8(static_cast<std::uint8_t>(WireTag::kTermHalt));
    w.PutU32(halt.round);
  }
}

namespace wire_internal {

// Reuses *out's current alternative when it already holds a T (string/vector
// capacity survives), else re-seats the variant.  The zero-alloc receive
// path decodes directly into recycled WireBatch slots this way.
template <typename T>
inline T* SlotAs(WireBody* out) {
  if (auto* p = std::get_if<T>(out)) {
    return p;
  }
  return &out->emplace<T>();
}

}  // namespace wire_internal

// Decodes one tagged message into *out in place.  Returns false on truncation
// or unknown tag (*out's contents are then unspecified but valid).
inline bool TryDeserializeWireBody(SafeReader* r, WireBody* out) {
  using wire_internal::GetTs;
  using wire_internal::SlotAs;
  std::uint8_t tag = 0;
  if (!r->GetU8(&tag)) {
    return false;
  }
  switch (static_cast<WireTag>(tag)) {
    case WireTag::kUpdate: {
      UpdateMsg* m = SlotAs<UpdateMsg>(out);
      return r->GetU64(&m->key) && GetTs(r, &m->ts) && r->GetString(&m->value);
    }
    case WireTag::kInvalidate: {
      InvalidateMsg* m = SlotAs<InvalidateMsg>(out);
      return r->GetU64(&m->key) && GetTs(r, &m->ts);
    }
    case WireTag::kAck: {
      AckMsg* m = SlotAs<AckMsg>(out);
      return r->GetU64(&m->key) && GetTs(r, &m->ts);
    }
    case WireTag::kHotSetAnnounce: {
      HotSetAnnounceMsg* m = SlotAs<HotSetAnnounceMsg>(out);
      std::uint32_t count = 0;
      if (!r->GetU64(&m->epoch) || !r->GetU32(&count) ||
          static_cast<std::size_t>(count) * 8 > r->remaining()) {
        return false;
      }
      m->keys.resize(count);
      for (Key& k : m->keys) {
        if (!r->GetU64(&k)) {
          return false;
        }
      }
      return true;
    }
    case WireTag::kFill: {
      FillMsg* m = SlotAs<FillMsg>(out);
      return r->GetU64(&m->key) && GetTs(r, &m->ts) && r->GetU64(&m->epoch) &&
             r->GetString(&m->value);
    }
    case WireTag::kEpochInstalled: {
      EpochInstalledMsg* m = SlotAs<EpochInstalledMsg>(out);
      return r->GetU64(&m->epoch);
    }
    case WireTag::kRpcRequest: {
      RpcRequest* m = SlotAs<RpcRequest>(out);
      std::uint8_t op = 0;
      if (!r->GetU32(&m->op_id) || !r->GetU8(&op) || op > 1 ||
          !r->GetU64(&m->key) || !r->GetString(&m->value) ||
          !r->GetU64(&m->trace_id) || !r->GetU64(&m->parent_span)) {
        return false;
      }
      m->op = static_cast<OpType>(op);
      return true;
    }
    case WireTag::kRpcResponse: {
      RpcResponse* m = SlotAs<RpcResponse>(out);
      std::uint8_t gated = 0;
      if (!r->GetU32(&m->op_id) || !GetTs(r, &m->ts) || !r->GetU8(&gated) ||
          gated > 1 || !r->GetString(&m->value) || !r->GetU64(&m->trace_id)) {
        return false;
      }
      m->gated = gated != 0;
      return true;
    }
    case WireTag::kTermProbe: {
      TermProbeMsg* m = SlotAs<TermProbeMsg>(out);
      return r->GetU32(&m->round);
    }
    case WireTag::kTermStatus: {
      TermStatusMsg* m = SlotAs<TermStatusMsg>(out);
      std::uint8_t rank = 0;
      std::uint8_t done = 0;
      if (!r->GetU32(&m->round) || !r->GetU8(&rank) || !r->GetU8(&done) ||
          !r->GetU64(&m->sent) || !r->GetU64(&m->processed)) {
        return false;
      }
      m->rank = static_cast<NodeId>(rank);
      m->done = done != 0;
      return true;
    }
    case WireTag::kTermHalt: {
      TermHaltMsg* m = SlotAs<TermHaltMsg>(out);
      return r->GetU32(&m->round);
    }
  }
  return false;  // unknown tag
}

inline void SerializeWireBatch(const WireBatch& batch, Buffer* out) {
  CCKVS_CHECK_LE(batch.size(),
                 static_cast<std::size_t>(std::numeric_limits<std::uint16_t>::max()));
  BufferWriter w(out);
  w.PutU8(batch.src);
  w.PutU16(static_cast<std::uint16_t>(batch.size()));
  for (const WireBody& body : batch) {
    SerializeWireBody(body, out);
  }
}

// Strict whole-frame decode: the buffer must contain exactly one batch —
// truncation anywhere and trailing bytes both reject.  Decodes into *out's
// recycled slots (logical clear, in-place bodies), so a warm batch decodes
// allocation-free.
inline bool TryDeserializeWireBatch(const std::uint8_t* data, std::size_t size,
                                    WireBatch* out) {
  SafeReader r(data, size);
  std::uint8_t src = 0;
  std::uint16_t count = 0;
  if (!r.GetU8(&src) || !r.GetU16(&count)) {
    return false;
  }
  out->src = static_cast<NodeId>(src);
  out->clear();
  for (std::uint16_t i = 0; i < count; ++i) {
    std::uint8_t tag = 0;  // a bad tag fails TryDeserializeWireBody
    r.PeekU8(&tag);
    if (!TryDeserializeWireBody(&r, &out->AppendSlot(tag - 1u))) {
      return false;
    }
  }
  return r.AtEnd();
}

inline bool TryDeserializeWireBatch(const Buffer& in, WireBatch* out) {
  return TryDeserializeWireBatch(in.data(), in.size(), out);
}

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_WIRE_CODEC_H_
