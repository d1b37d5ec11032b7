// Multi-process rack launcher: fork the ranks, run rank 0, collect every
// rank's artifacts.
//
// A ranked rack is N OS processes, one rack node each, talking over the shm
// or socket fabric; every process runs the same LiveRackParams except for
// transport.rank.  RunRankedRack forks ranks 1..N-1 from the calling process
// without exec, so each child already holds the caller's params in memory and
// only overrides its rank.  Each child streams one artifact back over a pipe:
// its completed-op count, RPC count, transport error (empty = healthy) and —
// when record_history is on — its sealed HistoryOp list, ready to merge into
// one History for the verify/ checkers.
//
// The artifact bytes still cross a process boundary, so they are decoded with
// the non-aborting SafeReader: a child that died mid-write or a corrupted
// stream ends in an error string, not a CHECK abort.

#ifndef CCKVS_RUNTIME_MULTIPROC_H_
#define CCKVS_RUNTIME_MULTIPROC_H_

#include <string>
#include <vector>

#include "src/rdma/serialize.h"
#include "src/runtime/live_rack.h"
#include "src/verify/history.h"

namespace cckvs {

// What one rank hands back to the launcher.
struct RankArtifacts {
  std::uint64_t completed = 0;
  std::uint64_t rpcs_sent = 0;
  std::string transport_error;       // empty = healthy run
  std::vector<HistoryOp> history;    // empty unless params.record_history
};

// The artifact byte stream a child writes to its pipe.  Decode returns false
// and fills *error on a truncated stream, trailing bytes, a wrong magic, or an
// op count the remaining bytes cannot hold.
Buffer EncodeRankArtifacts(const RankArtifacts& artifacts);
bool DecodeRankArtifacts(const Buffer& raw, RankArtifacts* out, std::string* error);

struct RankedRun {
  LiveReport report;                 // rank 0's full report
  std::vector<RankArtifacts> ranks;  // ranks[r] is rank r's; [0] mirrors report
  // Empty iff every child exited 0 with a well-formed artifact.  Otherwise it
  // names each rank that exited non-zero (a child exits 1 on a transport
  // error), died on a signal, or sent a malformed artifact.
  std::string error;
};

// Forks ranks 1..N-1, runs rank 0 in the calling process, then reads every
// child's pipe to EOF and reaps every child.  A zero params.clock_epoch_ns is
// replaced by one shared epoch so the merged histories stay comparable.
//
// Precondition: the caller is single-threaded.  The forks happen before rank
// 0 constructs its rack, and by then every earlier rack, profiler and socket
// rx thread has been joined, so no child inherits a lock held by a thread
// that does not exist in it.  Children leave through _exit, so no atexit
// handler (bench JSON writer, gtest, LSan) runs twice.
RankedRun RunRankedRack(const LiveRackParams& params);

}  // namespace cckvs

#endif  // CCKVS_RUNTIME_MULTIPROC_H_
