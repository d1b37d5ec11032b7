// Consistency-protocol messages (§5.2).  Their byte encoding, shared by the
// simulator and the live rack, is runtime/wire_codec.h.

#ifndef CCKVS_PROTOCOL_MESSAGES_H_
#define CCKVS_PROTOCOL_MESSAGES_H_

#include "src/common/types.h"

namespace cckvs {

// SC and Lin phase-2: carries the new value.  The writer id travels as the
// message source, so only key + clock ride in the payload (see WireFormat).
struct UpdateMsg {
  Key key = 0;
  Value value;
  Timestamp ts{};
};

// Lin phase-1.
struct InvalidateMsg {
  Key key = 0;
  Timestamp ts{};
};

// Lin phase-1 response, unicast back to the writer.
struct AckMsg {
  Key key = 0;
  Timestamp ts{};
};

}  // namespace cckvs

#endif  // CCKVS_PROTOCOL_MESSAGES_H_
