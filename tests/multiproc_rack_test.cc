// Multi-process live rack stress (runtime/multiproc.h + cross-process
// fabrics): 4 OS processes, one node each, over shm rings and UDS sockets,
// with online epochs and popularity drift — the full production protocol
// stack across address-space boundaries — certified by the per-key SC/Lin
// checkers over the merged histories.
//
// The test binary re-execs itself for the child ranks: invoked as
//   <binary> --cckvs-join <params-hex> <artifact-path>
// it runs one rank and writes its artifact file instead of running gtest.
// Op counts scale down under sanitizers (each child inherits the sanitizer
// runtime, so a 4-process TSan rack is 4x the usual slowdown).

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/live_rack.h"
#include "src/runtime/multiproc.h"
#include "src/runtime/tracing.h"
#include "src/verify/history.h"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define CCKVS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define CCKVS_SANITIZED 1
#endif
#endif

namespace cckvs {
namespace {

std::uint64_t OpsPerRank() {
#ifdef CCKVS_SANITIZED
  return 4'000;
#else
  return 25'000;
#endif
}

LiveRackParams MultiprocParams(TransportKind kind, ConsistencyModel model,
                               const std::string& run_tag) {
  LiveRackParams p;
  p.num_nodes = 4;
  p.consistency = model;
  p.ops_per_node = OpsPerRank();
  // Hot-key contention + a real miss stream, as in live_rack_test, but with
  // every cross-node byte travelling through a real kernel/shm boundary.
  p.workload.keyspace = 8'192;
  p.workload.zipf_alpha = 0.99;
  p.workload.write_ratio = 0.2;
  p.workload.value_bytes = 16;
  p.cache_capacity = 256;
  p.partition_buckets = 1 << 10;
  p.window_per_node = 4;
  p.record_history = true;
  p.seed = 11;
  // Online epochs + drift: hot-set churn happens WHILE ranks exchange RPCs
  // and updates — the hardest consistency surface this repo has.
  p.online_topk = true;
  p.topk_epoch_requests = OpsPerRank() / 2;
  p.workload.drift_period_ops = OpsPerRank() / 2;
  p.workload.drift_rank_shift = 16;

  p.transport.kind = kind;
  const std::string ns = std::to_string(getpid()) + "_" + run_tag;
  p.transport.shm_name = "/cckvs_mpt_" + ns;
  p.transport.socket_path_base = "/tmp/cckvs_mpt_" + ns;
  p.clock_epoch_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return p;
}

std::string ArtifactPath(const std::string& run_tag, int rank) {
  return "/tmp/cckvs_mpt_" + std::to_string(getpid()) + "_" + run_tag + ".rank" +
         std::to_string(rank) + ".bin";
}

// Spawns ranks 1..3 as child processes, runs rank 0 in-process, merges all
// histories and runs the full checkers.
void RunAndCertify(TransportKind kind, ConsistencyModel model,
                   const std::string& run_tag, bool with_l1 = false) {
  LiveRackParams params = MultiprocParams(kind, model, run_tag);
  if (with_l1) {
    // Node-private L1 tail in every rank, with per-node rank skew so each
    // process actually fills its private tier.  The blob carries the L1
    // knobs to the child ranks; the merged histories must stay as
    // checker-clean as without the L1.
    params.l1_capacity = 128;
    params.l1_policy = L1Policy::kLru;
    params.workload.node_rank_stride = 512;
  }

  std::vector<pid_t> children;
  for (int rank = 1; rank < params.num_nodes; ++rank) {
    LiveRackParams child = params;
    child.transport.rank = rank;
    std::string error;
    const pid_t pid = SpawnSelf(
        {"--cckvs-join", EncodeRackParams(child), ArtifactPath(run_tag, rank)},
        &error);
    ASSERT_GE(pid, 0) << error;
    children.push_back(pid);
  }

  params.transport.rank = 0;
  LiveRack rack(params);
  const LiveReport report = rack.Run();
  EXPECT_TRUE(report.ok()) << report.transport_error;
  EXPECT_GE(report.completed, params.ops_per_node);
  EXPECT_GT(report.rpcs_sent, 0u) << "no remote-homed miss ever took the RPC path";

  History merged;
  for (const HistoryOp& op : rack.history().ops()) {
    merged.Record(op);
  }
  std::uint64_t total_completed = report.completed;

  for (std::size_t i = 0; i < children.size(); ++i) {
    int code = -1;
    std::string error;
    EXPECT_TRUE(WaitExit(children[i], &code, &error)) << error;
    EXPECT_EQ(code, 0) << "rank " << i + 1 << " failed";
  }
  for (int rank = 1; rank < params.num_nodes; ++rank) {
    RankArtifacts a;
    std::string error;
    ASSERT_TRUE(LoadRankArtifacts(ArtifactPath(run_tag, rank), &a, &error)) << error;
    EXPECT_TRUE(a.transport_error.empty()) << a.transport_error;
    EXPECT_GE(a.completed, params.ops_per_node);
    total_completed += a.completed;
    for (HistoryOp& op : a.history) {
      merged.Record(std::move(op));
    }
    std::remove(ArtifactPath(run_tag, rank).c_str());
  }

  // Every completed op everywhere is in the merged history — nothing lost in
  // an address-space crossing.
  EXPECT_EQ(merged.size(), total_completed);

  // The full verify/ battery over the merged multi-process run.
  if (model == ConsistencyModel::kLin) {
    EXPECT_EQ(merged.CheckPerKeyLinearizability(), "");
  } else {
    EXPECT_EQ(merged.CheckPerKeySequentialConsistency(), "");
  }
  EXPECT_EQ(merged.CheckWriteAtomicity(), "");
}

TEST(MultiprocRack, ShmFourRanksLinUnderEpochsAndDrift) {
  RunAndCertify(TransportKind::kShm, ConsistencyModel::kLin, "shm_lin");
}

TEST(MultiprocRack, ShmFourRanksScUnderEpochsAndDrift) {
  RunAndCertify(TransportKind::kShm, ConsistencyModel::kSc, "shm_sc");
}

TEST(MultiprocRack, ShmFourRanksScWithL1Tail) {
  RunAndCertify(TransportKind::kShm, ConsistencyModel::kSc, "shm_sc_l1",
                /*with_l1=*/true);
}

TEST(MultiprocRack, ShmFourRanksLinWithL1Tail) {
  RunAndCertify(TransportKind::kShm, ConsistencyModel::kLin, "shm_lin_l1",
                /*with_l1=*/true);
}

TEST(MultiprocRack, SocketFourRanksLinUnderEpochsAndDrift) {
  RunAndCertify(TransportKind::kSocket, ConsistencyModel::kLin, "uds_lin");
}

TEST(MultiprocRack, SocketFourRanksScUnderEpochsAndDrift) {
  RunAndCertify(TransportKind::kSocket, ConsistencyModel::kSc, "uds_sc");
}

// Scans one exported per-rank trace file line by line (one event per line,
// by construction) and collects the trace ids of requester-side `rpc` spans
// and home-side `rpc_serve` spans, plus which transition kinds appeared.
struct TraceScan {
  std::set<std::string> rpc_traces;
  std::set<std::string> serve_traces;
  bool saw_epoch_install = false;
  bool saw_barrier_wait = false;
  bool saw_gate_closed = false;
  std::size_t events = 0;
};

std::string TraceIdOf(const std::string& line) {
  const std::string key = "\"trace\":\"";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) {
    return "";
  }
  const std::size_t begin = at + key.size();
  const std::size_t end = line.find('"', begin);
  return end == std::string::npos ? "" : line.substr(begin, end - begin);
}

void ScanTraceFile(const std::string& path, TraceScan* scan) {
  std::ifstream f(path);
  ASSERT_TRUE(f) << "missing per-rank trace file " << path;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] != '{' ||
        line.rfind("{\"traceEvents\"", 0) == 0) {
      continue;
    }
    ++scan->events;
    // The trailing comma disambiguates "rpc" from "rpc_serve"/"rpc_flow".
    const std::string trace = TraceIdOf(line);
    if (line.find("\"name\":\"rpc\",") != std::string::npos) {
      if (!trace.empty() && trace != "0x0") {
        scan->rpc_traces.insert(trace);
      }
    } else if (line.find("\"name\":\"rpc_serve\",") != std::string::npos) {
      if (!trace.empty() && trace != "0x0") {
        scan->serve_traces.insert(trace);
      }
    } else if (line.find("\"name\":\"epoch_install\",") != std::string::npos) {
      scan->saw_epoch_install = true;
    } else if (line.find("\"name\":\"barrier_wait\",") != std::string::npos) {
      scan->saw_barrier_wait = true;
    } else if (line.find("\"name\":\"gate_closed\",") != std::string::npos) {
      scan->saw_gate_closed = true;
    }
  }
}

// The tracing acceptance scenario: a traced 4-rank shm rack with online
// epochs produces per-rank span files whose requester-side `rpc` spans join
// home-side `rpc_serve` spans from OTHER processes by trace id, records the
// epoch-transition timeline, and the per-rank files merge into one valid
// Chrome trace.
TEST(MultiprocRack, TracedShmRackStitchesRpcSpansAcrossRanks) {
  const std::string run_tag = "trace";
  LiveRackParams params =
      MultiprocParams(TransportKind::kShm, ConsistencyModel::kLin, run_tag);
  params.record_history = false;  // certification is the other tests' job
  params.trace_path =
      "/tmp/cckvs_mpt_" + std::to_string(getpid()) + "_trace.json";
  params.trace_sample = 1;            // every op: stitching must be abundant
  params.trace_ring_capacity = 1 << 17;

  std::vector<pid_t> children;
  for (int rank = 1; rank < params.num_nodes; ++rank) {
    LiveRackParams child = params;
    child.transport.rank = rank;
    std::string error;
    const pid_t pid = SpawnSelf(
        {"--cckvs-join", EncodeRackParams(child), ArtifactPath(run_tag, rank)},
        &error);
    ASSERT_GE(pid, 0) << error;
    children.push_back(pid);
  }

  params.transport.rank = 0;
  LiveRack rack(params);
  const LiveReport report = rack.Run();
  EXPECT_TRUE(report.ok()) << report.transport_error;
  EXPECT_TRUE(report.trace_error.empty()) << report.trace_error;
  EXPECT_GT(report.spans_recorded, 0u);

  for (std::size_t i = 0; i < children.size(); ++i) {
    int code = -1;
    std::string error;
    EXPECT_TRUE(WaitExit(children[i], &code, &error)) << error;
    EXPECT_EQ(code, 0) << "rank " << i + 1 << " failed";
    std::remove(ArtifactPath(run_tag, i + 1).c_str());
  }

  // Every rank exported its own span file; scan them all.
  TraceScan scan;
  std::vector<std::string> rank_files;
  for (int rank = 0; rank < params.num_nodes; ++rank) {
    rank_files.push_back(params.trace_path + ".rank" + std::to_string(rank));
    ScanTraceFile(rank_files.back(), &scan);
  }
  EXPECT_GT(scan.events, 0u);

  // The stitching invariant: a sampled remote miss leaves an `rpc` span in
  // the requester's file and an `rpc_serve` span with the SAME trace id in
  // the home rank's file — a different process.
  EXPECT_FALSE(scan.rpc_traces.empty()) << "no sampled rpc spans recorded";
  EXPECT_FALSE(scan.serve_traces.empty()) << "no rpc_serve spans recorded";
  std::set<std::string> joined;
  for (const std::string& t : scan.rpc_traces) {
    if (scan.serve_traces.count(t) != 0) {
      joined.insert(t);
    }
  }
  EXPECT_FALSE(joined.empty())
      << "no rpc span joins an rpc_serve span by trace id across ranks";

  // The epoch-transition timeline made it into the spans.
  EXPECT_TRUE(scan.saw_epoch_install) << "no epoch_install span recorded";
  EXPECT_TRUE(scan.saw_barrier_wait) << "no barrier_wait span recorded";
  EXPECT_TRUE(scan.saw_gate_closed) << "no gate_closed span recorded";

  // And the per-rank files splice into one well-formed trace.
  std::string error;
  ASSERT_TRUE(MergeChromeTraces(rank_files, params.trace_path, &error)) << error;
  std::ifstream merged(params.trace_path);
  ASSERT_TRUE(merged);
  std::string text((std::istreambuf_iterator<char>(merged)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(text.find("{\"traceEvents\"", 1), std::string::npos)
      << "per-rank header leaked into the merged trace";
  EXPECT_NE(text.find("\"name\":\"rpc_serve\""), std::string::npos);

  std::remove(params.trace_path.c_str());
  for (const std::string& f : rank_files) {
    std::remove(f.c_str());
  }
}

// Params survive the argv hand-off bit-exactly (doubles included).
TEST(MultiprocRack, ParamsRoundTripThroughHexBlob) {
  LiveRackParams p = MultiprocParams(TransportKind::kSocket, ConsistencyModel::kSc,
                                     "roundtrip");
  p.transport.rank = 2;
  p.coalescing = true;
  p.coalesce_flush_deadline_us = 77;
  p.l1_capacity = 333;
  p.l1_policy = L1Policy::kLfu;
  p.workload.node_rank_stride = 1'234;
  const std::string hex = EncodeRackParams(p);
  LiveRackParams q;
  std::string error;
  ASSERT_TRUE(DecodeRackParams(hex, &q, &error)) << error;
  EXPECT_EQ(EncodeRackParams(q), hex);
  EXPECT_EQ(q.transport.rank, 2);
  EXPECT_EQ(q.consistency, ConsistencyModel::kSc);
  EXPECT_EQ(q.transport.kind, TransportKind::kSocket);
  EXPECT_EQ(q.workload.zipf_alpha, p.workload.zipf_alpha);
  EXPECT_EQ(q.clock_epoch_ns, p.clock_epoch_ns);
  EXPECT_EQ(q.l1_capacity, 333u);
  EXPECT_EQ(q.l1_policy, L1Policy::kLfu);
  EXPECT_EQ(q.workload.node_rank_stride, 1'234u);

  LiveRackParams bad;
  EXPECT_FALSE(DecodeRackParams(hex.substr(0, hex.size() - 4), &bad, &error));
  EXPECT_FALSE(DecodeRackParams("zz" + hex, &bad, &error));
  // The leading byte is the layout version: a blob from an older (or newer)
  // build must be refused even when its body would happen to parse.
  ASSERT_EQ(hex.substr(0, 2), "05");
  error.clear();
  EXPECT_FALSE(DecodeRackParams("04" + hex.substr(2), &bad, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

}  // namespace
}  // namespace cckvs

// Child mode: one rank of a multi-process rack, then exit — no gtest.
int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--cckvs-join") {
    cckvs::LiveRackParams params;
    std::string error;
    if (!cckvs::DecodeRackParams(argv[2], &params, &error)) {
      std::fprintf(stderr, "child: %s\n", error.c_str());
      return 2;
    }
    cckvs::LiveRack rack(params);
    const cckvs::LiveReport report = rack.Run();
    cckvs::RankArtifacts artifacts;
    artifacts.completed = report.completed;
    artifacts.rpcs_sent = report.rpcs_sent;
    artifacts.transport_error = report.transport_error;
    artifacts.history = rack.history().ops();
    if (!cckvs::SaveRankArtifacts(argv[3], artifacts, &error)) {
      std::fprintf(stderr, "child: %s\n", error.c_str());
      return 2;
    }
    return report.ok() ? 0 : 1;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
