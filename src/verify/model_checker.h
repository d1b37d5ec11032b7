// Exhaustive model checking of the Lin protocol (§5.2 "Verification", S14).
//
// The paper verified its Lin protocol in Murφ (3 processors, 2 addresses, 2-bit
// timestamps) for safety — the single-writer-multiple-reader and data-value
// invariants — and deadlock freedom.  This checker reproduces that verification
// against the *production* LinEngine code (src/protocol/engine.cc), not an
// abstract re-specification: it instantiates N real engines over real symmetric
// caches, and exhaustively explores every interleaving of
//
//   * write initiations (any node, while a global write budget remains), and
//   * message deliveries (any in-flight message, in any order — UD gives no
//     ordering guarantees, so the in-flight set is a multiset).
//
// Checked properties:
//   I1 data-value: a Valid entry's value is exactly the value written by the
//      write carrying the entry's timestamp.
//   I2 write serialization (logical-time SWMR): a node's entry timestamp never
//      decreases across any transition.
//   I3 real-time ordering (the Lin-specific strengthening): a write starting
//      after some write completed must receive a strictly larger timestamp.
//   I4 deadlock freedom: every state with protocol work outstanding has an
//      enabled transition.
//   I5 convergence: every terminal state is fully quiescent — no in-flight
//      messages, all writes completed, all entries Valid and agreeing on the
//      globally maximal timestamp and its value.
//
// State identity is a canonical encoding of cache contents + in-flight messages
// + budgets; exploration is BFS with replay (states are regenerated from action
// paths, so the engines never need to be copyable).
//
// A second scope — CheckEpochTransition — extends the same exhaustive method
// to §4's epoch-transition machinery: N real engines + symmetric caches +
// store::Partition shards + topk::HotSetManager instances (driven through the
// same HotSetHost hooks both production hosts use) explore every interleaving
// of announce applications, protocol deliveries (inv/ack/update), fills,
// install-barrier confirmations, client op starts and gated-op retries across
// one epoch change that evicts one key and admits another.  Client ops run the
// production op path: each node hosts a NodeCore (src/cckvs/node_core.h).
// Messages travel per-(src,dst) FIFO lanes — the ordering both transports
// guarantee and the install barrier relies on — while lanes interleave freely.
// Checked: per-key linearizability at every op completion (reads never
// observe below the key's completed-op watermark; writes serialize strictly
// above it) under Lin, data-value/write-atomicity everywhere, per-node
// timestamp monotonicity, deadlock freedom (no op parked forever, nothing
// deferred at quiescence), and terminal convergence (caches agree on the
// admitted key, the evicted key's shard holds its maximal write, every gate
// lifted, every node installed).

#ifndef CCKVS_VERIFY_MODEL_CHECKER_H_
#define CCKVS_VERIFY_MODEL_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/protocol/engine.h"

namespace cckvs {

struct ModelCheckerConfig {
  int num_nodes = 3;       // paper: 3 processors
  int total_writes = 3;    // global write budget (paper: 2-bit timestamps)
  int max_clock = 15;      // timestamp bound; CHECKed, never reached in practice
};

struct ModelCheckerResult {
  bool ok = false;
  std::uint64_t states_explored = 0;
  std::uint64_t transitions = 0;
  std::uint64_t terminal_states = 0;
  std::uint64_t max_depth = 0;
  std::string failure;  // human-readable description of the first violation
};

// Runs the exhaustive exploration.  Deterministic.
ModelCheckerResult CheckLinProtocol(const ModelCheckerConfig& config);

// Epoch-transition scope: one epoch change (key 0 evicted, key 1 admitted)
// explored exhaustively against the production engines, caches, shards and
// hot-set managers.  Client load comes from `puts` put templates and `gets`
// get templates spread across nodes and both keys; each runs NodeCore's route
// (probe, engine or gated home shard) and parks in its node's gated ring, from
// which RetryGatedOps re-routes it, while the home gate is up.
struct TransitionScopeConfig {
  int num_nodes = 2;
  ConsistencyModel model = ConsistencyModel::kLin;
  int puts = 1;       // put templates (≤ 4)
  int gets = 1;       // get templates (≤ 4)
  int max_clock = 15; // timestamp bound; CHECKed, never reached in practice
};

// Runs the exhaustive transition exploration.  Deterministic.
ModelCheckerResult CheckEpochTransition(const TransitionScopeConfig& config);

}  // namespace cckvs

#endif  // CCKVS_VERIFY_MODEL_CHECKER_H_
