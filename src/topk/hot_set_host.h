// The host half of an epoch transition (§4): what a node owes the rack while
// the HotSetManager installs an announced hot set.
//
// One production class implements it: NodeCore (cckvs/node_core.h), the
// home side of a node in the simulator, the live rack and the model checker
// alike, over the same store::Partition primitives; HotSetManager::Drive*
// executes every transition through it.  There is exactly ONE transition
// state machine (hot_set_manager.cc).  What differs per host reaches NodeCore
// as direct host calls: how the published messages travel (chunked control
// packets on the simulated fabric, broadcasts on the live transport, FIFO
// lanes in the model checker's transition scope), and where ops parked on the
// residency gate wait for their retry (NodeCore's gated ring, which the live
// run loop and the checker's retry action drain, and the sim's parked
// KVS-request deque).
//
// Ordering contract (the install barrier): PublishFills and PublishInstalled
// must ship on the same per-peer FIFO lanes as the consistency updates this
// node sent earlier.  That is what makes "every node installed epoch E" imply
// "every update to a key evicted in E has drained into its home shard", which
// is the fact LiftGate acts on.

#ifndef CCKVS_TOPK_HOT_SET_HOST_H_
#define CCKVS_TOPK_HOT_SET_HOST_H_

#include <vector>

#include "src/cache/symmetric_cache.h"
#include "src/common/types.h"
#include "src/topk/hot_set_messages.h"

namespace cckvs {

class HotSetHost {
 public:
  virtual ~HotSetHost() = default;

  // Flush a dirty eviction homed at this node into its shard: a timestamped
  // apply that installs iff newer and preserves the residency flag.
  virtual void ApplyWriteback(const SymmetricCache::Eviction& ev) = 0;

  struct FillSnapshot {
    Value value;
    Timestamp ts{};
  };
  // Raise the shard residency gate for `key` (homed here) and snapshot the
  // authoritative value the fill is taken from.  Mark and snapshot must be
  // atomic against direct shard writers — Partition::MarkCacheResident
  // provides exactly that contract.
  virtual FillSnapshot GateAndSnapshot(Key key) = 0;

  // Ship one transition's fills (keys homed here) to every peer.  The manager
  // has already applied them to the local cache.
  virtual void PublishFills(const std::vector<FillMsg>& fills) = 0;

  // Broadcast this node's install-barrier confirmation.
  virtual void PublishInstalled(const EpochInstalledMsg& msg) = 0;

  // The install barrier completed for `key` (homed here): every node
  // installed the evicting epoch, so the pre-eviction updates that travelled
  // ahead of their confirmations have all drained into this shard and it is
  // authoritative again.  The gate comes down; work parked on it is retried
  // by the host.
  virtual void LiftGate(Key key) = 0;
};

}  // namespace cckvs

#endif  // CCKVS_TOPK_HOT_SET_HOST_H_
