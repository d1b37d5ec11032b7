// Shared-memory transport backend: same-host multi-process racks.
//
// One POSIX shm region holds the whole fabric: a per-(src,dst) SPSC byte
// ring for every ordered node pair, a process-shared doorbell per node, and
// the §6.3 credit-return matrix.  Batches travel as serialized frames
// ([u32 len][wire_codec batch]), exactly the bytes the socket backend would
// put on a stream — so FIFO per lane is the ring's own order, and
// wakeup-once-per-batch is at most one doorbell signal per frame (none, and
// no lock, unless the consumer is parked).  The region holds no message
// count: termination is the counting protocol (control_messages.h).
//
// The creator (rank 0, or the all-in-one process) initializes the region and
// sets the ready flag; joiners attach and wait for it.  See shm_fabric.cc for
// the layout and the lost-wakeup argument.

#ifndef CCKVS_RUNTIME_SHM_FABRIC_H_
#define CCKVS_RUNTIME_SHM_FABRIC_H_

#include <memory>
#include <string>

#include "src/runtime/fabric.h"

namespace cckvs {

// Creates (rank <= 0) or attaches (rank > 0) the shm fabric.  Blocks until
// the region is ready; returns nullptr with *error set on create/attach
// failure or ready-wait timeout.
std::unique_ptr<TransportFabric> MakeShmFabric(const FabricConfig& config,
                                               const TransportOptions& opts,
                                               std::string* error);

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_SHM_FABRIC_H_
