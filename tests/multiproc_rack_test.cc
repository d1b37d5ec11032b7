// Multi-process live rack stress (runtime/multiproc.h + cross-process
// fabrics): 4 OS processes, one node each, over shm rings and UDS sockets,
// with online epochs and popularity drift — the full production protocol
// stack across address-space boundaries — certified by the per-key SC/Lin
// checkers over the merged histories.
//
// RunRankedRack forks the child ranks from the test process itself.  Op
// counts scale down under sanitizers (each child inherits the sanitizer
// runtime, so a 4-process TSan rack is 4x the usual slowdown).

#include <unistd.h>

#include <cstdio>
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
  return p;
}

// Forks ranks 1..3, runs rank 0 in-process, merges all histories and runs
// the full checkers.  A nonzero `flush_deadline_us` turns coalescing on with
// that hold window, so the ranks' termination messages can sit in held
// batches too.
void RunAndCertify(TransportKind kind, ConsistencyModel model,
                   const std::string& run_tag, bool with_l1 = false,
                   std::uint64_t flush_deadline_us = 0) {
  LiveRackParams params = MultiprocParams(kind, model, run_tag);
  if (flush_deadline_us > 0) {
    params.coalescing = true;
    params.coalesce_flush_deadline_us = flush_deadline_us;
  }
  if (with_l1) {
    // Node-private L1 tail in every rank, with per-node rank skew so each
    // process actually fills its private tier.  The merged histories must
    // stay as checker-clean as without the L1.
    params.l1_capacity = 128;
    params.l1_policy = L1Policy::kLru;
    params.workload.node_rank_stride = 512;
  }

  RankedRun run = RunRankedRack(params);
  ASSERT_EQ(run.error, "");
  EXPECT_GT(run.report.rpcs_sent, 0u) << "no remote-homed miss ever took the RPC path";

  History merged;
  std::uint64_t total_completed = 0;
  for (RankArtifacts& a : run.ranks) {
    EXPECT_TRUE(a.transport_error.empty()) << a.transport_error;
    EXPECT_GE(a.completed, params.ops_per_node);
    total_completed += a.completed;
    for (HistoryOp& op : a.history) {
      merged.Record(std::move(op));
    }
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

// With a 20 µs flush deadline: the halt rank 0 sends as it exits must ship
// at once, not wait out a deadline no one is left to poll.
TEST(MultiprocRack, SocketFourRanksScUnderEpochsAndDrift) {
  RunAndCertify(TransportKind::kSocket, ConsistencyModel::kSc, "uds_sc",
                /*with_l1=*/false, /*flush_deadline_us=*/20);
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
  LiveRackParams params =
      MultiprocParams(TransportKind::kShm, ConsistencyModel::kLin, "trace");
  params.record_history = false;  // certification is the other tests' job
  params.trace_path =
      "/tmp/cckvs_mpt_" + std::to_string(getpid()) + "_trace.json";
  params.trace_sample = 1;            // every op: stitching must be abundant
  params.trace_ring_capacity = 1 << 17;

  const RankedRun run = RunRankedRack(params);
  ASSERT_EQ(run.error, "");
  EXPECT_TRUE(run.report.ok()) << run.report.transport_error;
  EXPECT_TRUE(run.report.trace_error.empty()) << run.report.trace_error;
  EXPECT_GT(run.report.spans_recorded, 0u);

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

// A rank whose transport fails exits non-zero, and the launcher's error names
// it together with the transport error its artifact carried.
TEST(MultiprocRack, FailedRanksAreNamedInTheError) {
  LiveRackParams params =
      MultiprocParams(TransportKind::kSocket, ConsistencyModel::kSc, "bad_path");
  params.transport.socket_path_base = "/nonexistent_dir/cckvs_mpt";
  const RankedRun run = RunRankedRack(params);
  EXPECT_FALSE(run.report.ok());
  for (int rank = 1; rank < params.num_nodes; ++rank) {
    EXPECT_NE(run.error.find("rank " + std::to_string(rank) +
                             ": exited with status 1 (bind/listen"),
              std::string::npos)
        << run.error;
  }
}

// The artifact decoder rejects every malformed stream with an error string
// instead of aborting: the bytes come from another process.
TEST(MultiprocRack, ArtifactDecoderRejectsMalformedStreams) {
  RankArtifacts a;
  a.completed = 3;
  a.rpcs_sent = 1;
  a.transport_error = "peer hung up";
  a.history.resize(2);
  a.history[0].key = 7;
  a.history[0].value = "v1";
  a.history[1].type = OpType::kPut;
  a.history[1].key = 9;
  const Buffer good = EncodeRankArtifacts(a);

  RankArtifacts out;
  std::string error;
  ASSERT_TRUE(DecodeRankArtifacts(good, &out, &error)) << error;
  EXPECT_EQ(out.completed, 3u);
  EXPECT_EQ(out.transport_error, "peer hung up");
  ASSERT_EQ(out.history.size(), 2u);
  EXPECT_EQ(out.history[0].value, "v1");
  EXPECT_EQ(out.history[1].type, OpType::kPut);
  EXPECT_EQ(out.history[1].key, 9u);

  const auto rejects = [](const Buffer& raw) {
    RankArtifacts ignored;
    std::string why;
    const bool ok = DecodeRankArtifacts(raw, &ignored, &why);
    return !ok && !why.empty();
  };
  // Truncated anywhere: inside the header and inside the last op.
  EXPECT_TRUE(rejects(Buffer(good.begin(), good.begin() + 12)));
  EXPECT_TRUE(rejects(Buffer(good.begin(), good.end() - 1)));
  // Trailing bytes after the last op.
  Buffer trailing = good;
  trailing.push_back(0);
  EXPECT_TRUE(rejects(trailing));
  // Wrong magic.
  Buffer bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_TRUE(rejects(bad_magic));
  // An op count the remaining bytes cannot hold: one more op than encoded,
  // and a count far beyond the stream length.  The count is the u64 right
  // after the magic, completed, rpcs_sent and the length-prefixed error.
  const std::size_t count_at = 8 + 8 + 8 + 4 + a.transport_error.size();
  for (const std::uint64_t count : {std::uint64_t{3}, std::uint64_t{1} << 40}) {
    Buffer bad_count = good;
    for (int b = 0; b < 8; ++b) {
      bad_count[count_at + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(count >> (8 * b));
    }
    EXPECT_TRUE(rejects(bad_count)) << count;
  }
}

}  // namespace
}  // namespace cckvs
