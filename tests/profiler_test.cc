// Profiling subsystem (runtime/profiler.h), the zero-alloc audit
// (common/alloc_tracker.h + LiveRackParams::track_allocs/alloc_assert), and
// the run-loop knobs (pinning, busy_poll) the profiler observes.
//
// The sampling contract under test: flow counters are published monotonically
// by worker threads and the profiler reports per-interval DELTAS, so summing
// every interval's delta for a node must reproduce that node's final total
// exactly — no sample may be lost or double-counted, no matter how the
// sampling instants interleave with the increments.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory_resource>
#include <new>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/alloc_tracker.h"
#include "src/runtime/live_rack.h"
#include "src/runtime/profiler.h"

namespace cckvs {
namespace {

TEST(ProfilerTest, DeltasSumToTotalsUnderConcurrentIncrements) {
  constexpr int kNodes = 3;
  constexpr std::uint64_t kOpsPerNode = 200'000;
  std::vector<WorkerCounters> counters(kNodes);

  Profiler::Options opts;
  opts.interval_ms = 1;  // sample as often as possible while writers run
  Profiler profiler(opts, &counters);
  profiler.Start();

  std::vector<std::thread> writers;
  for (int n = 0; n < kNodes; ++n) {
    writers.emplace_back([&counters, n] {
      for (std::uint64_t i = 1; i <= kOpsPerNode; ++i) {
        counters[static_cast<std::size_t>(n)].completed.store(
            i, std::memory_order_relaxed);
        counters[static_cast<std::size_t>(n)].msgs_sent.store(
            2 * i, std::memory_order_relaxed);
        counters[static_cast<std::size_t>(n)].inbound_depth.store(
            i % 7, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  profiler.Stop();

  // Stop() takes a final sample after the writers finished, so the deltas
  // must account for every increment.
  std::vector<std::uint64_t> ops_sum(kNodes, 0);
  std::vector<std::uint64_t> msgs_sum(kNodes, 0);
  for (const ProfilerSample& s : profiler.samples()) {
    ASSERT_GE(s.node, 0);
    ASSERT_LT(s.node, kNodes);
    ops_sum[static_cast<std::size_t>(s.node)] += s.completed;
    msgs_sum[static_cast<std::size_t>(s.node)] += s.msgs_sent;
    EXPECT_LT(s.inbound_depth, 7u) << "gauges are reported verbatim";
  }
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_EQ(ops_sum[static_cast<std::size_t>(n)], kOpsPerNode) << "node " << n;
    EXPECT_EQ(msgs_sum[static_cast<std::size_t>(n)], 2 * kOpsPerNode)
        << "node " << n;
  }
}

TEST(ProfilerTest, StopWithoutStartIsANoOpAndStopIsIdempotent) {
  std::vector<WorkerCounters> counters(1);
  Profiler profiler(Profiler::Options{}, &counters);
  profiler.Stop();  // never started: nothing to join, no samples
  EXPECT_TRUE(profiler.samples().empty());

  Profiler p2(Profiler::Options{}, &counters);
  p2.Start();
  p2.Stop();
  const std::size_t n = p2.samples().size();
  p2.Stop();  // second stop must not add samples or double-join
  EXPECT_EQ(p2.samples().size(), n);
  EXPECT_EQ(n, 1u) << "final sample: one row per node even on a short run";
}

TEST(ProfilerTest, CsvFileGetsHeaderAndOneRowPerSample) {
  const std::string path =
      ::testing::TempDir() + "/profiler_test_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".csv";
  std::vector<WorkerCounters> counters(2);
  Profiler::Options opts;
  opts.csv_path = path;
  Profiler profiler(opts, &counters);
  profiler.Start();
  counters[0].completed.store(5, std::memory_order_relaxed);
  counters[1].completed.store(9, std::memory_order_relaxed);
  profiler.Stop();

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[512];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_EQ(std::string(line), std::string(ProfilerCsvHeader()) + "\n");
  const auto split = [](std::string row) {
    if (!row.empty() && row.back() == '\n') {
      row.pop_back();
    }
    std::vector<std::string> fields;
    std::size_t begin = 0;
    for (std::size_t comma; (comma = row.find(',', begin)) != std::string::npos;
         begin = comma + 1) {
      fields.push_back(row.substr(begin, comma - begin));
    }
    fields.push_back(row.substr(begin));
    return fields;
  };
  const std::vector<std::string> header = split(line);
  std::size_t node_col = header.size();
  std::size_t ops_col = header.size();
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "node") node_col = i;
    if (header[i] == "completed") ops_col = i;
  }
  ASSERT_LT(node_col, header.size());
  ASSERT_LT(ops_col, header.size());
  std::vector<std::string> ops_by_node(2);
  std::size_t rows = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++rows;
    const std::vector<std::string> fields = split(line);
    ASSERT_EQ(fields.size(), header.size()) << "row " << rows << ": " << line;
    const int node = std::stoi(fields[node_col]);
    ASSERT_GE(node, 0);
    ASSERT_LT(node, 2);
    ops_by_node[static_cast<std::size_t>(node)] = fields[ops_col];
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(rows, profiler.samples().size());
  EXPECT_EQ(rows, 2u);  // final sample: one row per node
  // The ops column carries each node's own counter, not a neighbour's.
  EXPECT_EQ(ops_by_node[0], "5");
  EXPECT_EQ(ops_by_node[1], "9");
}

// The profiler's sums against the report: for every flow counter of the
// CCKVS_LIVE_COUNTERS table, a node's per-interval deltas must add up to
// exactly what the report totals, including what the nodes ship as they exit
// (the exit flush) and what lands after their last loop iteration.
TEST(ProfilerTest, FlowDeltasSumToTheReportTotals) {
  for (const bool coalescing : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      LiveRackParams p;
      p.num_nodes = 3;
      p.consistency = ConsistencyModel::kSc;
      p.workload.keyspace = 20'000;
      p.workload.zipf_alpha = 0.99;
      p.workload.write_ratio = 0.05;
      p.workload.value_bytes = 40;
      p.cache_capacity = 200;
      p.l1_capacity = 128;
      p.workload.node_rank_stride = 1'000;
      p.window_per_node = 8;
      p.ops_per_node = 20'000;
      p.coalescing = coalescing;
      p.seed = seed;
      p.profile = true;
      p.profile_interval_ms = 5;
      LiveRack rack(p);
      const LiveReport r = rack.Run();
      ASSERT_TRUE(r.ok()) << r.transport_error;
      ASSERT_FALSE(r.profiler_samples.empty());

      LiveCounters sums;
      for (const ProfilerSample& s : r.profiler_samples) {
#define CCKVS_SUM(name, kind, total) sums.name += s.name;
        CCKVS_LIVE_COUNTERS(CCKVS_SUM)
#undef CCKVS_SUM
      }
      const std::string where = "coalescing " + std::to_string(coalescing) +
                                ", seed " + std::to_string(seed) + ": ";
#define CCKVS_EXPECT_FLOW(kind, name, report_total) \
  if (CounterKind::kind == CounterKind::kFlow) {     \
    EXPECT_EQ(sums.name, report_total) << where << #name; \
  }
#define CCKVS_EXPECT_SUM(name, kind, total)                   \
  CCKVS_BY_TOTAL_##total(CCKVS_EXPECT_FLOW(kind, name, r.name), \
                         CCKVS_EXPECT_FLOW(kind, name, r.rack.name))
      CCKVS_LIVE_COUNTERS(CCKVS_EXPECT_SUM)
#undef CCKVS_EXPECT_SUM
#undef CCKVS_EXPECT_FLOW
    }
  }
}

// A CSV the profiler cannot open does not fail the run: the samples are kept
// in memory and the report says why the file is missing.
TEST(ProfilerTest, UnwritableCsvIsReportedAndTheRunSucceeds) {
  LiveRackParams p;
  p.num_nodes = 2;
  p.workload.keyspace = 5'000;
  p.workload.value_bytes = 40;
  p.cache_capacity = 100;
  p.window_per_node = 4;
  p.ops_per_node = 2'000;
  p.profile = true;
  p.profile_csv_path = ::testing::TempDir() + "/no_such_directory/profile.csv";
  LiveRack rack(p);
  const LiveReport r = rack.Run();
  EXPECT_TRUE(r.ok()) << r.transport_error;
  EXPECT_NE(r.profile_error.find(p.profile_csv_path), std::string::npos)
      << r.profile_error;
  EXPECT_FALSE(r.profiler_samples.empty());
}

// docs/PERFORMANCE.md ("The profiler thread") holds the one written copy of
// the CSV columns; the other documents point at it.  It must match the
// header the table generates.
TEST(ProfilerTest, DocumentedColumnsMatchTheCsvHeader) {
  std::ifstream doc(std::string(CCKVS_SOURCE_DIR) + "/docs/PERFORMANCE.md");
  ASSERT_TRUE(doc.is_open());
  std::string line;
  while (std::getline(doc, line) &&
         line != "Columns (exactly `ProfilerCsvHeader()`):") {
  }
  ASSERT_TRUE(doc) << "no column block in docs/PERFORMANCE.md";
  std::getline(doc, line);  // blank
  std::getline(doc, line);
  ASSERT_EQ(line, "```");
  std::string documented;
  while (std::getline(doc, line) && line != "```") {
    documented += line;  // the block wraps the one header line at commas
  }
  EXPECT_EQ(documented, ProfilerCsvHeader());
}

// The counting operator new replaces every form, so each must serve what the
// standard library asks of it: std::pmr::new_delete_resource passes the
// element's own alignment, below a pointer's for a string.
TEST(AllocTrackerTest, AlignedNewServesAlignmentsBelowAPointer) {
  for (std::size_t align = 1; align <= 64; align *= 2) {
    void* p = ::operator new(24, std::align_val_t{align});
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
    ::operator delete(p, std::align_val_t{align});
  }
  std::pmr::unsynchronized_pool_resource pool;
  std::pmr::string s("longer than the small-string buffer", &pool);
  EXPECT_EQ(s.size(), 35u);
}

// The acceptance invariant of the zero-alloc messaging work: an SC rack with
// the store prefilled performs no heap allocation inside any node's
// steady-state window.  Skipped under sanitizers, where the counting
// operator new is compiled out (TrackerAvailable() == false).
TEST(ProfilerTest, SteadyStateScRunIsAllocationFree) {
  if (!alloc::TrackerAvailable()) {
    GTEST_SKIP() << "allocation tracker compiled out (sanitizer build)";
  }
  LiveRackParams p;
  p.num_nodes = 3;
  p.consistency = ConsistencyModel::kSc;
  p.workload.keyspace = 20'000;
  p.workload.zipf_alpha = 0.99;
  p.workload.write_ratio = 0.05;
  p.workload.value_bytes = 40;
  p.cache_capacity = 200;
  p.l1_capacity = 128;  // the L1 tail + admission sketch run inside the audit
  p.workload.node_rank_stride = 1'000;  // make the L1 actually fill and serve
  p.window_per_node = 16;
  p.ops_per_node = 30'000;
  p.coalescing = true;
  p.seed = 7;
  p.prefill_store = true;
  p.track_allocs = true;
  p.alloc_assert = true;  // a nonzero count aborts the test binary
  p.profile = true;       // exercise counter publishing inside the window
  p.profile_interval_ms = 10;

  LiveRack rack(p);
  const LiveReport r = rack.Run();
  EXPECT_TRUE(r.ok()) << r.transport_error;
  EXPECT_GE(r.completed, 3u * 30'000u);  // quota is a floor: drain finishes
                                         // whatever was in flight at quota
  EXPECT_EQ(r.hot_path_allocs, 0u);
  EXPECT_FALSE(r.profiler_samples.empty());
  EXPECT_GT(r.rack.l1_hits, 0u) << "the audit should cover a SERVING L1";
}

TEST(ProfilerTest, BusyPollRackCompletesAndRecordsLatency) {
  // Busy-poll replaces the parking wait with spin-then-yield; the run must
  // still terminate (drain + quiesce) and produce per-op rdtsc latencies.
  LiveRackParams p;
  p.num_nodes = 2;
  p.consistency = ConsistencyModel::kSc;
  p.workload.keyspace = 5'000;
  p.workload.write_ratio = 0.05;
  p.workload.value_bytes = 40;
  p.cache_capacity = 100;
  p.window_per_node = 8;
  p.ops_per_node = 5'000;
  p.coalescing = true;
  p.busy_poll = true;
  p.pinning = true;  // modulo nproc: must be safe on any core count
  p.seed = 11;
  LiveRack rack(p);
  const LiveReport r = rack.Run();
  EXPECT_TRUE(r.ok()) << r.transport_error;
  EXPECT_GE(r.completed, 2u * 5'000u);
  EXPECT_GT(r.rack.p50_latency_us, 0.0);
}

}  // namespace
}  // namespace cckvs
