// Socket transport backend: UDS (default) or TCP, the multi-host fabric.
//
// One stream connection per node pair carries length-prefixed frames
// ([u8 type][u32 len][payload]) — batches (wire_codec frames), credit
// returns (the header-only credit-update message made literal), and a HELLO
// that identifies the connecting rank.  A single receive thread per fabric
// polls every inbound side, decodes frames, and feeds per-node MpscChannel
// inboxes, so the consumer-facing semantics (FIFO per lane, wakeup-once-per-
// batch, non-blocking drain) are exactly the in-process ones.
//
// All-in-one mode (rank < 0) wires the pairs with socketpair(2) — the
// conformance suite runs the full serialize/frame/decode path without any
// filesystem or port setup.  Ranked mode (rank >= 0) listens at
// "<socket_path_base>.<rank>" (UDS) or 127.0.0.1:(tcp_port_base+rank) (TCP),
// connects to lower ranks with retry, and accepts higher ranks.
//
// Faults never hang: peer hangup mid-frame, short writes, and undecodable
// frames latch a sticky error() that the rack surfaces as a LiveReport
// error; connect-refused past the deadline fails MakeSocketFabric cleanly.
// Nothing here spans processes but the streams themselves: racks on this
// backend, like every rack, terminate via the counting protocol in
// control_messages.h, which rides the same streams.

#ifndef CCKVS_RUNTIME_SOCKET_FABRIC_H_
#define CCKVS_RUNTIME_SOCKET_FABRIC_H_

#include <memory>
#include <string>

#include "src/runtime/fabric.h"

namespace cckvs {

// Wire frame types, shared with the fault-injection tests (which speak the
// protocol over raw sockets to simulate misbehaving peers).
inline constexpr std::uint8_t kSocketFrameHello = 1;
inline constexpr std::uint8_t kSocketFrameBatch = 2;
inline constexpr std::uint8_t kSocketFrameCredit = 3;
inline constexpr std::size_t kSocketFrameHeaderBytes = 5;  // [u8 type][u32 len]
inline constexpr std::uint32_t kSocketMaxFrameBytes = 16u << 20;

std::unique_ptr<TransportFabric> MakeSocketFabric(const FabricConfig& config,
                                                  const TransportOptions& opts,
                                                  std::string* error);

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_SOCKET_FABRIC_H_
