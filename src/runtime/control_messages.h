// Runtime control-plane messages: distributed termination, one rule for
// every rack — in-process, shm or socket, all-in-one or ranked.
//
// A node that reached its quota may leave its run loop only once no node can
// send another message (a late update or epoch fill must still be applied).
// No backend keeps a rack-global message count, so every rack detects that
// with the classic four-counter termination detection over FIFO channels,
// node 0 coordinating:
//
//   * node 0, once locally quiescent, broadcasts TermProbeMsg{round};
//   * every node answers with TermStatusMsg{round, done, sent, processed},
//     where `sent`/`processed` count data messages only (Term* traffic is
//     excluded, or the counts would chase their own tail);
//   * node 0 declares termination when two consecutive rounds return
//     identical per-node counts, every node reports done, and the global
//     sums match (sum sent == sum processed).  With per-peer FIFO lanes a
//     data message still in flight is counted in some sender's `sent` but in
//     no receiver's `processed`, so the sums cannot match twice in a row —
//     and a message processed between the rounds changes the snapshot.
//   * TermHaltMsg releases everyone: histories are sealed, the run is over.
//     A node flushes its open batches as it exits, deadline or not, so no
//     halt is left in a batch nobody will ship.
//
// `done` (LiveNode::LocallyQuiescent) is sound only if a node reporting it
// cannot send until it receives a message: no client work, no parked or
// deferred protocol work, nothing in an open batch.
//
// Term messages ride the normal transport lanes uncredited (like acks): at
// most one probe/status per peer is outstanding per round, so the §6.3
// channel bounds still hold with a constant slack.  Rounds are at least
// 200 µs apart.

#ifndef CCKVS_RUNTIME_CONTROL_MESSAGES_H_
#define CCKVS_RUNTIME_CONTROL_MESSAGES_H_

#include <cstdint>

#include "src/common/types.h"

namespace cckvs {

// Node 0 -> everyone: report your termination counters for `round`.
struct TermProbeMsg {
  std::uint32_t round = 0;
};

// Everyone -> node 0: local quiescence + data-message counters at receipt of
// the probe for `round`.
struct TermStatusMsg {
  std::uint32_t round = 0;
  NodeId rank = 0;
  bool done = false;
  std::uint64_t sent = 0;       // data messages committed to delivery
  std::uint64_t processed = 0;  // data messages whose handler completed
};

// Node 0 -> everyone: the rack is globally quiescent; stop pumping.
struct TermHaltMsg {
  std::uint32_t round = 0;  // the round that proved termination
};

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_CONTROL_MESSAGES_H_
