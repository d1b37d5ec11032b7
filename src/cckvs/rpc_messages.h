// RPC request/response formats for the FaSST-style remote KVS access path
// (§6.1): efficient single-key GET/PUT operations over UD sends.
//
// A packet carries several requests or responses when request coalescing is
// on (§8.5).  Both hosts encode them with runtime/wire_codec.h; the
// `payload_bytes` the simulator puts on its wire come from WireFormat (the
// paper's calibrated sizes), not from the encoded length.

#ifndef CCKVS_CCKVS_RPC_MESSAGES_H_
#define CCKVS_CCKVS_RPC_MESSAGES_H_

#include "src/common/types.h"

namespace cckvs {

struct RpcRequest {
  std::uint32_t op_id = 0;  // requester-local operation id, echoed in response
  OpType op = OpType::kGet;
  Key key = 0;
  Value value;  // PUT only
  // Distributed-tracing context (runtime/tracing.h): the sampled op's trace
  // id and the requester-side op span, so the home's rpc_serve span stitches
  // into the requester's timeline.  0 = op not sampled.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

struct RpcResponse {
  std::uint32_t op_id = 0;
  Value value;  // GET only
  Timestamp ts{};
  // The home refused to touch the shard because the key is cache-resident
  // (residency gate up during or after an epoch transition).  The requester
  // must re-route the op: by the time the bounce lands, its own cache has
  // usually admitted the key.  The home never parks an RPC — it cannot see
  // the requester's cache catch up, so parking can deadlock a halted rack.
  bool gated = false;
  // Echo of RpcRequest::trace_id (0 = untraced); keeps the wire symmetric so
  // either side of a trace can be reconstructed from a capture.
  std::uint64_t trace_id = 0;
};

}  // namespace cckvs

#endif  // CCKVS_CCKVS_RPC_MESSAGES_H_
