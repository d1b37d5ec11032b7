// Flat little-endian byte writers for messages on the wire.
//
// Messages travel through the simulated fabric and the live rack's
// cross-process backends as byte buffers, exactly as they would through a
// real UD send: senders serialize, receivers deserialize.  ByteWriter is the
// fast path: it writes through a raw pointer into memory the caller has
// already sized (one store per field, one memcpy per string), which lets the
// shm backend encode a frame straight into its ring.  BufferWriter appends
// to a growing Buffer for payloads whose size is not known up front.  The
// one message codec built on ByteWriter, and its bounds-checked reader, is
// runtime/wire_codec.h.

#ifndef CCKVS_RDMA_SERIALIZE_H_
#define CCKVS_RDMA_SERIALIZE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/check.h"

namespace cckvs {

using Buffer = std::vector<std::uint8_t>;

// The wire is little-endian on every host: a plain store where the host
// agrees, bytes in order where it does not.
template <typename T>
inline void StoreLe(std::uint8_t* p, T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

template <typename T>
inline T LoadLe(const std::uint8_t* p) {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(static_cast<T>(p[i]) << (8 * i)));
    }
  }
  return v;
}

// Writes through a raw pointer; the caller guarantees room for every byte
// (wire_codec.h sizes a frame exactly before encoding it).
class ByteWriter {
 public:
  explicit ByteWriter(std::uint8_t* dst) : p_(dst) {}

  void PutU8(std::uint8_t v) { *p_++ = v; }
  void PutU16(std::uint16_t v) { PutLe(v); }
  void PutU32(std::uint32_t v) { PutLe(v); }
  void PutU64(std::uint64_t v) { PutLe(v); }
  void PutString(const std::string& s) {
    CCKVS_CHECK_LE(s.size(), 0xffffffffull);
    PutU32(static_cast<std::uint32_t>(s.size()));
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
  }

 private:
  template <typename T>
  void PutLe(T v) {
    StoreLe(p_, v);
    p_ += sizeof(T);
  }

  std::uint8_t* p_;
};

// Appends to *out, growing it field by field.
class BufferWriter {
 public:
  explicit BufferWriter(Buffer* out) : out_(out) {}

  void PutU8(std::uint8_t v) { out_->push_back(v); }
  void PutU16(std::uint16_t v) { PutLe(v); }
  void PutU32(std::uint32_t v) { PutLe(v); }
  void PutU64(std::uint64_t v) { PutLe(v); }
  void PutString(const std::string& s) {
    CCKVS_CHECK_LE(s.size(), 0xffffffffull);
    PutU32(static_cast<std::uint32_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }

 private:
  template <typename T>
  void PutLe(T v) {
    const std::size_t at = out_->size();
    out_->resize(at + sizeof(T));
    StoreLe(out_->data() + at, v);
  }

  Buffer* out_;
};

}  // namespace cckvs

#endif  // CCKVS_RDMA_SERIALIZE_H_
