// Tests for the verification substrate itself: the exhaustive Lin model checker
// (the paper's Murphi substitute, §5.2) and the history checkers (§5.1).

#include <gtest/gtest.h>

#include "src/verify/history.h"
#include "src/verify/model_checker.h"
#include "src/workload/workload.h"

namespace cckvs {
namespace {

// ---------------------------------------------------------------------------
// Model checker
// ---------------------------------------------------------------------------

// The exact state space of a scope.  A refactor of the engine or of the
// checker that narrows the search (fewer interleavings, a coarser state
// encoding) changes these counts, where a lower bound would still pass.
void ExpectStateSpace(const ModelCheckerResult& r, std::uint64_t states,
                      std::uint64_t transitions, std::uint64_t terminals,
                      std::uint64_t depth) {
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.states_explored, states);
  EXPECT_EQ(r.transitions, transitions);
  EXPECT_EQ(r.terminal_states, terminals);
  EXPECT_EQ(r.max_depth, depth);
}

TEST(ModelChecker, TwoNodesTwoWrites) {
  ModelCheckerConfig cfg;
  cfg.num_nodes = 2;
  cfg.total_writes = 2;
  ExpectStateSpace(CheckLinProtocol(cfg), 97, 130, 11, 8);
}

TEST(ModelChecker, TwoNodesThreeWrites) {
  ModelCheckerConfig cfg;
  cfg.num_nodes = 2;
  cfg.total_writes = 3;
  ExpectStateSpace(CheckLinProtocol(cfg), 811, 1484, 41, 12);
}

TEST(ModelChecker, ThreeNodesTwoWrites) {
  ModelCheckerConfig cfg;
  cfg.num_nodes = 3;
  cfg.total_writes = 2;
  ExpectStateSpace(CheckLinProtocol(cfg), 2095, 4935, 30, 14);
}

TEST(ModelChecker, PaperScaleThreeNodesThreeWrites) {
  // The paper's Murphi run used 3 processors and 2-bit timestamps; three writes
  // per key exhaust a 2-bit clock.  This is the heavyweight exhaustive case.
  ModelCheckerConfig cfg;
  cfg.num_nodes = 3;
  cfg.total_writes = 3;
  ExpectStateSpace(CheckLinProtocol(cfg), 102806, 341340, 289, 21);
}

TEST(ModelChecker, Deterministic) {
  ModelCheckerConfig cfg;
  cfg.num_nodes = 2;
  cfg.total_writes = 2;
  const ModelCheckerResult a = CheckLinProtocol(cfg);
  const ModelCheckerResult b = CheckLinProtocol(cfg);
  EXPECT_EQ(a.states_explored, b.states_explored);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.terminal_states, b.terminal_states);
}

// ---------------------------------------------------------------------------
// History checkers: hand-crafted histories from the paper's Figures 5 and 6
// ---------------------------------------------------------------------------

HistoryOp Put(SessionId s, Key k, const char* v, Timestamp ts, SimTime t0, SimTime t1) {
  return HistoryOp{s, OpType::kPut, k, v, ts, t0, t1};
}
HistoryOp Get(SessionId s, Key k, const char* v, Timestamp ts, SimTime t0, SimTime t1) {
  return HistoryOp{s, OpType::kGet, k, v, ts, t0, t1};
}

TEST(HistoryCheck, Figure5StaleReadPassesScFailsLin) {
  // Session A: PUT(K,1) at t0, GET->1 at t1.  Session B: GET->0 at t2.
  // "Session B seeing the old value is a violation of Lin, but not SC."
  History h;
  h.Record(Put(1, 5, "1", Timestamp{1, 0}, 0, 10));
  h.Record(Get(1, 5, "1", Timestamp{1, 0}, 20, 30));
  h.Record(Get(2, 5, "0", Timestamp{0, 0}, 40, 50));  // stale read after the put
  EXPECT_EQ(h.CheckPerKeySequentialConsistency(), "");
  EXPECT_NE(h.CheckPerKeyLinearizability(), "");
}

TEST(HistoryCheck, Figure6DisagreementFailsBoth) {
  // Two sessions observe the two puts in opposite orders: SC violation (and
  // hence a Lin violation).  Timestamp disagreement shows up as a session
  // observing a regressing timestamp.
  History h;
  h.Record(Put(1, 9, "1", Timestamp{1, 0}, 0, 100));
  h.Record(Put(4, 9, "2", Timestamp{2, 3}, 0, 100));
  // Session B sees put1 then put2 — fine.
  h.Record(Get(2, 9, "1", Timestamp{1, 0}, 110, 120));
  h.Record(Get(2, 9, "2", Timestamp{2, 3}, 130, 140));
  // Session C sees put2 then put1 — disagreement.
  h.Record(Get(3, 9, "2", Timestamp{2, 3}, 110, 120));
  h.Record(Get(3, 9, "1", Timestamp{1, 0}, 130, 140));
  EXPECT_NE(h.CheckPerKeySequentialConsistency(), "");
  EXPECT_NE(h.CheckPerKeyLinearizability(), "");
}

TEST(HistoryCheck, CleanLinearizableHistoryPassesEverything) {
  History h;
  h.Record(Put(1, 2, "a", Timestamp{1, 0}, 0, 10));
  h.Record(Get(2, 2, "a", Timestamp{1, 0}, 20, 30));
  h.Record(Put(2, 2, "b", Timestamp{2, 1}, 40, 50));
  h.Record(Get(1, 2, "b", Timestamp{2, 1}, 60, 70));
  EXPECT_EQ(h.CheckPerKeyLinearizability(), "");
  EXPECT_EQ(h.CheckPerKeySequentialConsistency(), "");
}

TEST(HistoryCheck, ConcurrentOpsAreUnconstrained) {
  // Overlapping intervals: either order is linearizable.
  History h;
  h.Record(Put(1, 3, "x", Timestamp{1, 0}, 0, 100));
  h.Record(Get(2, 3, "init", Timestamp{0, 0}, 50, 60));  // overlaps the put
  EXPECT_EQ(h.CheckPerKeyLinearizability(), "");
}

TEST(HistoryCheck, WritesMustHaveUniqueTimestamps) {
  History h;
  h.Record(Put(1, 4, "a", Timestamp{1, 0}, 0, 10));
  h.Record(Put(2, 4, "b", Timestamp{1, 0}, 20, 30));
  EXPECT_NE(h.CheckPerKeyLinearizability(), "");
  EXPECT_NE(h.CheckPerKeySequentialConsistency(), "");
}

TEST(HistoryCheck, ReadOfUnknownTimestampRejected) {
  History h;
  h.Record(Get(1, 6, "ghost", Timestamp{9, 9}, 0, 10));
  EXPECT_NE(h.CheckPerKeyLinearizability(), "");
}

TEST(HistoryCheck, WriteWriteRealTimeOrderEnforced) {
  // w2 starts after w1 completed but got a smaller timestamp: Lin violation.
  History h;
  h.Record(Put(1, 7, "w1", Timestamp{5, 0}, 0, 10));
  h.Record(Put(2, 7, "w2", Timestamp{3, 1}, 20, 30));
  EXPECT_NE(h.CheckPerKeyLinearizability(), "");
  // But per-key SC tolerates it (different sessions, no shared order observed).
  EXPECT_EQ(h.CheckPerKeySequentialConsistency(), "");
}

TEST(HistoryCheck, SessionOrderViolationCaughtBySc) {
  // One session reads ts 2 then ts 1: regression in session order.
  History h;
  h.Record(Put(1, 8, "a", Timestamp{1, 0}, 0, 10));
  h.Record(Put(1, 8, "b", Timestamp{2, 0}, 20, 30));
  h.Record(Get(2, 8, "b", Timestamp{2, 0}, 40, 50));
  h.Record(Get(2, 8, "a", Timestamp{1, 0}, 60, 70));
  EXPECT_NE(h.CheckPerKeySequentialConsistency(), "");
}

TEST(HistoryCheck, ReadYourWritesEnforcedBySc) {
  // A session reads an older timestamp than its own completed write.
  History h;
  h.Record(Put(3, 11, "mine", Timestamp{4, 2}, 0, 10));
  h.Record(Get(3, 11, "stale", Timestamp{2, 1}, 20, 30));
  h.Record(Put(9, 11, "stale", Timestamp{2, 1}, 0, 5));  // the older write
  EXPECT_NE(h.CheckPerKeySequentialConsistency(), "");
}

TEST(HistoryCheck, PerKeyIndependence) {
  // Cross-key reordering never violates per-key models.
  History h;
  h.Record(Put(1, 100, "a", Timestamp{1, 0}, 0, 10));
  h.Record(Put(1, 200, "b", Timestamp{1, 0}, 20, 30));  // same ts, different key
  h.Record(Get(2, 200, "b", Timestamp{1, 0}, 40, 50));
  h.Record(Get(2, 100, "a", Timestamp{1, 0}, 60, 70));
  EXPECT_EQ(h.CheckPerKeyLinearizability(), "");
  EXPECT_EQ(h.CheckPerKeySequentialConsistency(), "");
}

TEST(HistoryCheck, WriteAtomicityDetectsMishmash) {
  History h;
  h.Record(Put(1, 12, "written-value", Timestamp{1, 0}, 0, 10));
  h.Record(Get(2, 12, "mishmash-value", Timestamp{1, 0}, 20, 30));
  EXPECT_NE(h.CheckWriteAtomicity(), "");
}

TEST(HistoryCheck, WriteAtomicityAcceptsWritesAndSynthesizedValues) {
  History h;
  const Value synth = SynthesizeValue(13, 40);
  h.Record(Get(1, 13, synth.c_str(), Timestamp{0, 0}, 0, 10));
  // The raw value must round-trip exactly: rebuild from a std::string copy.
  HistoryOp get;
  get.session = 1;
  get.type = OpType::kGet;
  get.key = 13;
  get.value = synth;
  get.invoke = 0;
  get.complete = 10;
  History h2;
  h2.Record(get);
  HistoryOp put;
  put.session = 2;
  put.type = OpType::kPut;
  put.key = 13;
  put.value = MakeWriteValue(7, 1, 40);
  put.ts = Timestamp{1, 0};
  put.invoke = 20;
  put.complete = 30;
  h2.Record(put);
  HistoryOp get2 = get;
  get2.value = put.value;
  get2.ts = put.ts;
  get2.invoke = 40;
  get2.complete = 50;
  h2.Record(get2);
  EXPECT_EQ(h2.CheckWriteAtomicity(), "");
}

TEST(HistoryCheck, EmptyHistoryPasses) {
  History h;
  EXPECT_EQ(h.CheckPerKeyLinearizability(), "");
  EXPECT_EQ(h.CheckPerKeySequentialConsistency(), "");
  EXPECT_EQ(h.CheckWriteAtomicity(), "");
}

}  // namespace
}  // namespace cckvs
