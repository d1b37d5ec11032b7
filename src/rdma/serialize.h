// Flat little-endian byte writer for messages on the wire.
//
// Messages travel through the simulated fabric and the live rack's
// cross-process backends as byte buffers, exactly as they would through a
// real UD send: senders serialize, receivers deserialize.  The one message
// codec built on this writer, and its bounds-checked reader, is
// runtime/wire_codec.h.

#ifndef CCKVS_RDMA_SERIALIZE_H_
#define CCKVS_RDMA_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/check.h"

namespace cckvs {

using Buffer = std::vector<std::uint8_t>;

class BufferWriter {
 public:
  explicit BufferWriter(Buffer* out) : out_(out) {}

  void PutU8(std::uint8_t v) { out_->push_back(v); }
  void PutU16(std::uint16_t v) { PutLe(v); }
  void PutU32(std::uint32_t v) { PutLe(v); }
  void PutU64(std::uint64_t v) { PutLe(v); }
  void PutBytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_->insert(out_->end(), p, p + len);
  }
  void PutString(const std::string& s) {
    CCKVS_CHECK_LE(s.size(), 0xffffffffull);
    PutU32(static_cast<std::uint32_t>(s.size()));
    PutBytes(s.data(), s.size());
  }

 private:
  template <typename T>
  void PutLe(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Buffer* out_;
};

}  // namespace cckvs

#endif  // CCKVS_RDMA_SERIALIZE_H_
