// The messages every node exchanges, and their one byte encoding.
//
// WireBody is one message: §5.2 updates, invalidations and acks, §6.1 RPCs,
// §4 epoch traffic and the live rack's termination handshake.  WireBatch is
// N of them from one source, and it is the unit both hosts put on a wire:
// the simulator's RackNode encodes every datagram body as one WireBatch
// frame, and the live rack's shm-ring and socket backends move the same
// frames (the in-process fabric moves WireBatch values directly).  Encoding
// is little-endian via rdma/serialize.h, one tag byte per message, batch
// framing of
//
//   [u8 src] [u16 count] count x ( [u8 tag] body )
//
// and nothing else — transport-level length prefixes belong to the backend
// (the shm ring and the socket stream each add their own [u32 len]).  The
// simulator prices its datagrams with the paper's calibrated sizes
// (WireFormat), not with these byte counts.
//
// Decoding NEVER trusts the buffer: TryDeserializeWireBatch returns false on
// any truncation, trailing garbage, unknown tag or length overflow instead of
// aborting, so a malformed or short frame from a dying peer surfaces as a
// transport error, not corruption (the fault-injection tests drive exactly
// this).  The simulator, whose frames all come from its own nodes, treats a
// failed decode as a fatal check.  Header fields are endianness-stable by
// construction — serialize.h writes little-endian bytes explicitly, so
// frames are portable across hosts regardless of native byte order.
//
// Header-only over the message headers, so the simulator uses it without
// linking the live runtime.

#ifndef CCKVS_RUNTIME_WIRE_CODEC_H_
#define CCKVS_RUNTIME_WIRE_CODEC_H_

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "src/cckvs/rpc_messages.h"
#include "src/common/types.h"
#include "src/protocol/messages.h"
#include "src/rdma/serialize.h"
#include "src/runtime/control_messages.h"
#include "src/topk/hot_set_messages.h"

namespace cckvs {

// One message between nodes: the consistency protocol's three classes, the
// hot-set subsystem's epoch traffic, the §6.1 RPC miss path (ranked
// cross-process racks can't read a remote rank's shards through a seqlock, so
// remote-homed misses travel as RpcRequest/RpcResponse), and the ranked
// termination handshake (control_messages.h).  In the live rack, epoch
// messages ride the same credited lanes as broadcasts, which both bounds them
// under the §6.3 credit scheme and keeps them FIFO behind the updates a node
// sent earlier — the ordering the install barrier depends on
// (hot_set_manager.h).  RPC and Term* traffic is uncredited like acks:
// responses answer requests one-for-one (bounded by the requester's session
// window), and at most one probe/status per peer is outstanding per
// termination round.
using WireBody =
    std::variant<UpdateMsg, InvalidateMsg, AckMsg, HotSetAnnounceMsg, FillMsg,
                 EpochInstalledMsg, RpcRequest, RpcResponse, TermProbeMsg,
                 TermStatusMsg, TermHaltMsg>;

// Credited lanes spend §6.3 broadcast credits; everything else rides implicit
// credits (acks answer invalidations, responses answer requests, Term* is
// bounded per round).  Receivers must count and return credits for exactly
// the credited classes or the sender's pool leaks/overflows.
inline bool IsCredited(const WireBody& body) {
  return std::holds_alternative<UpdateMsg>(body) ||
         std::holds_alternative<InvalidateMsg>(body) ||
         std::holds_alternative<HotSetAnnounceMsg>(body) ||
         std::holds_alternative<FillMsg>(body) ||
         std::holds_alternative<EpochInstalledMsg>(body);
}

// Termination-detection control traffic is excluded from the sent/processed
// counters it is trying to balance (control_messages.h).
template <typename T>
inline constexpr bool kIsTermControl = std::is_same_v<T, TermProbeMsg> ||
                                       std::is_same_v<T, TermStatusMsg> ||
                                       std::is_same_v<T, TermHaltMsg>;
inline bool IsTermControl(const WireBody& body) {
  return std::visit(
      [](const auto& m) { return kIsTermControl<std::decay_t<decltype(m)>>; }, body);
}

// Position of alternative T in WireBody.
template <typename T, std::size_t I = 0>
constexpr std::size_t WireIndexOf() {
  if constexpr (std::is_same_v<T, std::variant_alternative_t<I, WireBody>>) {
    return I;
  } else {
    return WireIndexOf<T, I + 1>();
  }
}

// N same-destination messages sharing one channel push and one source id.
//
// Zero-alloc by design: the slot vector never shrinks.  clear() resets the
// logical count without destroying slots, and every append (typed, by value,
// or a decode) lands in a slot that already holds its alternative when one
// is spare — so a recycled batch whose slot held an UpdateMsg reuses that
// UpdateMsg's string capacity instead of reconstructing it, even after the
// batch carried an ack or a termination probe.  Steady-state traffic
// therefore allocates nothing; only growth beyond the high-water mark or an
// alternative change with no spare slot pays.
class WireBatch {
 public:
  NodeId src = 0;

  // Logical reset: slots (and their string capacity) survive for reuse.
  void clear() { count_ = 0; }

  // Exposes the next slot, about to hold alternative `index`, for in-place
  // construction (wire_codec decodes directly into it).  A slot holding
  // another alternative trades places with a spare that holds `index`
  // (variant swaps move strings; they never allocate).  With no such spare,
  // a non-update keeps off a warm update slot while the vector has room for
  // a fresh one.  Grows the slot vector only past the high-water mark.
  WireBody& AppendSlot(std::size_t index) {
    if (count_ == slots_.size()) {
      slots_.emplace_back();
    }
    WireBody& slot = slots_[count_++];
    if (slot.index() == index) {
      return slot;
    }
    for (std::size_t i = slots_.size(); i-- > count_;) {
      if (slots_[i].index() == index) {
        std::swap(slot, slots_[i]);
        return slot;
      }
    }
    if (std::holds_alternative<UpdateMsg>(slot) &&
        slots_.size() < slots_.capacity()) {
      slots_.emplace_back();  // within capacity: `slot` stays valid
      std::swap(slot, slots_.back());
    }
    return slot;
  }

  // Typed append: assigns into the slot when the alternative matches (string
  // capacity reuse), otherwise re-seats the variant.
  template <typename T>
  void Append(const T& msg) {
    WireBody& slot = AppendSlot(WireIndexOf<T>());
    if (auto* p = std::get_if<T>(&slot)) {
      *p = msg;
    } else {
      slot.emplace<T>(msg);
    }
  }

  void Append(WireBody&& body) { AppendSlot(body.index()) = std::move(body); }

  // Pre-pays the growth costs a cold batch would otherwise pay mid-run: grows
  // the slot vector to `slots` entries and reserves `value_bytes` of string
  // capacity in each (slots default to UpdateMsg — the variant's first
  // alternative and the only steady-state value carrier), plus room for one
  // more, so one control message never costs a warm string (AppendSlot).
  // Idempotent on a warm batch.  WireBatchPool::Prewarm uses this at fabric
  // init so a measured window never observes first-touch warm-up allocations.
  void Warm(std::size_t slots, std::size_t value_bytes) {
    if (slots_.size() < slots) {
      slots_.reserve(slots + 1);
      while (slots_.size() < slots) {
        slots_.emplace_back();
      }
    }
    for (WireBody& slot : slots_) {
      if (auto* upd = std::get_if<UpdateMsg>(&slot)) {
        upd->value.reserve(value_bytes);
      }
    }
    count_ = 0;
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  const WireBody& operator[](std::size_t i) const { return slots_[i]; }
  WireBody& operator[](std::size_t i) { return slots_[i]; }
  const WireBody* begin() const { return slots_.data(); }
  const WireBody* end() const { return slots_.data() + count_; }

  WireBatch() = default;
  WireBatch(const WireBatch&) = default;
  WireBatch& operator=(const WireBatch&) = default;
  // Moved-from batches must read as empty: the slot vector moves away, so a
  // stale count_ would index nothing.
  WireBatch(WireBatch&& other) noexcept
      : src(other.src), slots_(std::move(other.slots_)), count_(other.count_) {
    other.count_ = 0;
  }
  WireBatch& operator=(WireBatch&& other) noexcept {
    src = other.src;
    slots_ = std::move(other.slots_);
    count_ = other.count_;
    other.count_ = 0;
    return *this;
  }

 private:
  std::vector<WireBody> slots_;  // live prefix [0, count_); rest are spares
  std::size_t count_ = 0;
};


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

// Bounds-checked little-endian reader, the counterpart of serialize.h's
// BufferWriter: every Get returns false instead of aborting when the buffer
// runs out, for frames that cross a trust boundary.
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

// A frame's batch header, [u8 src] [u16 count], ahead of its messages.
inline constexpr std::size_t kWireBatchHeaderBytes = 3;

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
