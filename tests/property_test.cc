// Parameterized property-style suites sweeping invariants across configuration
// space: Zipf math identities, partition durability under random op mixes,
// protocol convergence across node counts and models, wire-format identities,
// and rack-level conservation laws.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/cckvs/rack.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/model/analytical.h"
#include "src/protocol/engine.h"
#include "src/rdma/wire_format.h"
#include "src/store/partition.h"
#include "src/verify/model_checker.h"

namespace cckvs {
namespace {

// ---------------------------------------------------------------------------
// Zipf properties across (n, alpha)
// ---------------------------------------------------------------------------

class ZipfProperty : public testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(ZipfProperty, CdfIsMonotoneAndNormalized) {
  const auto [n, alpha] = GetParam();
  double prev = 0.0;
  for (std::uint64_t k = 0; k <= n; k += std::max<std::uint64_t>(1, n / 7)) {
    const double cdf = ZipfCdf(k, n, alpha);
    ASSERT_GE(cdf, prev);
    ASSERT_LE(cdf, 1.0 + 1e-12);
    prev = cdf;
  }
  EXPECT_NEAR(ZipfCdf(n, n, alpha), 1.0, 1e-12);
}

TEST_P(ZipfProperty, PmfDecreasesWithRank) {
  const auto [n, alpha] = GetParam();
  if (alpha == 0.0) {
    GTEST_SKIP() << "uniform: flat pmf";
  }
  double prev = 1.0;
  for (std::uint64_t r = 1; r <= n; r += std::max<std::uint64_t>(1, n / 9)) {
    const double p = ZipfPmf(r, n, alpha);
    ASSERT_LE(p, prev + 1e-15);
    prev = p;
  }
}

TEST_P(ZipfProperty, SamplerTracksCdf) {
  const auto [n, alpha] = GetParam();
  ZipfSampler sampler(n, alpha);
  Rng rng(17);
  const std::uint64_t k = std::max<std::uint64_t>(1, n / 10);
  int hits = 0;
  const int draws = 60000;
  for (int i = 0; i < draws; ++i) {
    if (sampler.Sample(rng) <= k) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / draws, ZipfCdf(k, n, alpha), 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZipfProperty,
    testing::Combine(testing::Values<std::uint64_t>(10, 1000, 1u << 21),
                     testing::Values(0.0, 0.5, 0.9, 0.99, 1.0, 1.01, 1.3)));

// ---------------------------------------------------------------------------
// Partition durability under random op mixes (vs a std::map oracle)
// ---------------------------------------------------------------------------

class PartitionOracle : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionOracle, MatchesMapSemantics) {
  const auto [buckets, keyspace] = GetParam();
  PartitionConfig pc;
  pc.buckets = static_cast<std::size_t>(buckets);
  pc.node_id = 1;
  Partition part(pc);
  std::map<Key, Value> oracle;
  Rng rng(static_cast<std::uint64_t>(buckets * 31 + keyspace));
  for (int i = 0; i < 20000; ++i) {
    const Key k = rng.NextBounded(static_cast<std::uint64_t>(keyspace));
    const double dice = rng.NextDouble();
    if (dice < 0.55) {  // get
      Value v;
      const bool present = part.Get(k, &v);
      const auto it = oracle.find(k);
      ASSERT_EQ(present, it != oracle.end()) << "key " << k;
      if (present) {
        ASSERT_EQ(v, it->second);
      }
    } else if (dice < 0.9) {  // put
      const Value v = "v" + std::to_string(i);
      part.Put(k, v);
      oracle[k] = v;
    } else {  // erase
      const bool erased = part.Erase(k);
      ASSERT_EQ(erased, oracle.erase(k) > 0) << "key " << k;
    }
  }
  ASSERT_EQ(part.size(), oracle.size());
  for (const auto& [k, v] : oracle) {
    Value got;
    ASSERT_TRUE(part.Get(k, &got));
    ASSERT_EQ(got, v);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionOracle,
                         testing::Combine(testing::Values(4, 64, 1024),
                                          testing::Values(50, 1000, 20000)));

// ---------------------------------------------------------------------------
// Protocol convergence across (nodes, writes, model)
// ---------------------------------------------------------------------------

struct ProtocolCase {
  int nodes;
  int writes;
  ConsistencyModel model;
};

class ProtocolConvergence : public testing::TestWithParam<ProtocolCase> {};

TEST_P(ProtocolConvergence, RandomDeliveryAlwaysConverges) {
  const ProtocolCase c = GetParam();
  // Local fabric mirroring the one in protocol_test: deliver in random order.
  struct Fabric {
    struct Msg {
      int type;  // 0 upd, 1 inv, 2 ack
      NodeId from, to;
      UpdateMsg upd;
      InvalidateMsg inv;
      AckMsg ack;
    };
    class Sink final : public MessageSink {
     public:
      Sink(Fabric* f, NodeId self, int n) : f_(f), self_(self), n_(n) {}
      void BroadcastUpdate(const UpdateMsg& m) override {
        for (int j = 0; j < n_; ++j) {
          if (j != self_) {
            f_->queue.push_back({0, self_, static_cast<NodeId>(j), m, {}, {}});
          }
        }
      }
      void BroadcastInvalidate(const InvalidateMsg& m) override {
        for (int j = 0; j < n_; ++j) {
          if (j != self_) {
            f_->queue.push_back({1, self_, static_cast<NodeId>(j), {}, m, {}});
          }
        }
      }
      void SendAck(NodeId to, const AckMsg& m) override {
        f_->queue.push_back({2, self_, to, {}, {}, m});
      }
      Fabric* f_;
      NodeId self_;
      int n_;
    };
    std::vector<Msg> queue;
  };

  Fabric fabric;
  std::vector<std::unique_ptr<SymmetricCache>> caches;
  std::vector<std::unique_ptr<Fabric::Sink>> sinks;
  std::vector<std::unique_ptr<CoherenceEngine>> engines;
  const Key key = 5;
  for (int i = 0; i < c.nodes; ++i) {
    caches.push_back(std::make_unique<SymmetricCache>(1));
    caches.back()->InstallHotSet({key});
    caches.back()->Fill(key, "init", Timestamp{0, 0});
    sinks.push_back(std::make_unique<Fabric::Sink>(&fabric, static_cast<NodeId>(i),
                                                   c.nodes));
  }
  for (int i = 0; i < c.nodes; ++i) {
    if (c.model == ConsistencyModel::kSc) {
      engines.push_back(std::make_unique<ScEngine>(static_cast<NodeId>(i), c.nodes,
                                                   caches[static_cast<std::size_t>(i)].get(),
                                                   sinks[static_cast<std::size_t>(i)].get()));
    } else {
      engines.push_back(std::make_unique<LinEngine>(static_cast<NodeId>(i), c.nodes,
                                                    caches[static_cast<std::size_t>(i)].get(),
                                                    sinks[static_cast<std::size_t>(i)].get()));
    }
  }

  Rng rng(static_cast<std::uint64_t>(c.nodes * 1000 + c.writes * 10 +
                                     static_cast<int>(c.model)));
  int completed = 0;
  for (int w = 0; w < c.writes; ++w) {
    const auto node = static_cast<std::size_t>(rng.NextBounded(
        static_cast<std::uint64_t>(c.nodes)));
    engines[node]->Write(key, "w" + std::to_string(w), [&] { ++completed; });
    // Interleave some deliveries.
    for (int d = 0; d < 3 && !fabric.queue.empty(); ++d) {
      if (rng.NextBool(0.6)) {
        const auto idx = rng.NextBounded(fabric.queue.size());
        const Fabric::Msg m = fabric.queue[idx];
        fabric.queue.erase(fabric.queue.begin() + static_cast<std::ptrdiff_t>(idx));
        if (m.type == 0) {
          engines[m.to]->OnUpdate(m.from, m.upd);
        } else if (m.type == 1) {
          engines[m.to]->OnInvalidate(m.from, m.inv);
        } else {
          engines[m.to]->OnAck(m.from, m.ack);
        }
      }
    }
  }
  while (!fabric.queue.empty()) {
    const auto idx = rng.NextBounded(fabric.queue.size());
    const Fabric::Msg m = fabric.queue[idx];
    fabric.queue.erase(fabric.queue.begin() + static_cast<std::ptrdiff_t>(idx));
    if (m.type == 0) {
      engines[m.to]->OnUpdate(m.from, m.upd);
    } else if (m.type == 1) {
      engines[m.to]->OnInvalidate(m.from, m.inv);
    } else {
      engines[m.to]->OnAck(m.from, m.ack);
    }
  }

  EXPECT_EQ(completed, c.writes);
  const CacheEntry* first = caches[0]->Find(key);
  for (int i = 0; i < c.nodes; ++i) {
    const CacheEntry* e = caches[static_cast<std::size_t>(i)]->Find(key);
    ASSERT_EQ(e->state(), CacheState::kValid) << "node " << i;
    ASSERT_EQ(e->ts(), first->ts()) << "node " << i;
    ASSERT_EQ(e->value, first->value) << "node " << i;
    ASSERT_TRUE(engines[static_cast<std::size_t>(i)]->Quiescent());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolConvergence,
    testing::Values(ProtocolCase{2, 4, ConsistencyModel::kSc},
                    ProtocolCase{2, 4, ConsistencyModel::kLin},
                    ProtocolCase{3, 6, ConsistencyModel::kSc},
                    ProtocolCase{3, 6, ConsistencyModel::kLin},
                    ProtocolCase{5, 8, ConsistencyModel::kSc},
                    ProtocolCase{5, 8, ConsistencyModel::kLin},
                    ProtocolCase{9, 12, ConsistencyModel::kSc},
                    ProtocolCase{9, 12, ConsistencyModel::kLin}));

// ---------------------------------------------------------------------------
// Wire-format identities across value sizes
// ---------------------------------------------------------------------------

class WireProperty : public testing::TestWithParam<std::uint32_t> {};

TEST_P(WireProperty, AggregatesAreComponentSums) {
  const std::uint32_t v = GetParam();
  const WireFormat wf;
  EXPECT_EQ(wf.Brr(v), wf.RequestWire() + wf.ResponseWire(v));
  EXPECT_EQ(wf.Blin(v), wf.InvalidationWire() + wf.AckWire() + wf.UpdateWire(v));
  EXPECT_EQ(wf.Bsc(v), wf.UpdateWire(v));
  EXPECT_GT(wf.Blin(v), wf.Bsc(v));  // Lin always costs more per write
}

INSTANTIATE_TEST_SUITE_P(Sweep, WireProperty,
                         testing::Values(1u, 40u, 256u, 1024u, 4096u));

// ---------------------------------------------------------------------------
// Model identities across the (N, h, w) space
// ---------------------------------------------------------------------------

class ModelProperty
    : public testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(ModelProperty, OrderingsAndPositivity) {
  const auto [n, h, w] = GetParam();
  ModelParams p;
  p.num_servers = n;
  p.hit_ratio = h;
  p.write_ratio = w;
  const double sc = ThroughputScMrps(p);
  const double lin = ThroughputLinMrps(p);
  const double uni = ThroughputUniformMrps(p);
  ASSERT_GT(sc, 0.0);
  ASSERT_GT(lin, 0.0);
  ASSERT_GT(uni, 0.0);
  // Lin never beats SC (B_Lin > B_SC).
  ASSERT_LE(lin, sc + 1e-9);
  // Below both break-even points, ccKVS beats Uniform; above, it loses.
  const double be_sc = BreakEvenWriteRatioSc(p);
  if (w < be_sc - 1e-9) {
    ASSERT_GT(sc, uni);
  } else if (w > be_sc + 1e-9) {
    ASSERT_LT(sc, uni);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ModelProperty,
                         testing::Combine(testing::Values(3, 9, 20, 40),
                                          testing::Values(0.4, 0.63, 0.9),
                                          testing::Values(0.0, 0.005, 0.02, 0.1)));

// ---------------------------------------------------------------------------
// Rack conservation laws across systems
// ---------------------------------------------------------------------------

struct RackCase {
  SystemKind kind;
  ConsistencyModel model;
  double write_ratio;
};

class RackConservation : public testing::TestWithParam<RackCase> {};

TEST_P(RackConservation, CountsAddUpAndHistoriesHold) {
  const RackCase c = GetParam();
  RackParams p;
  p.kind = c.kind;
  p.consistency = c.model;
  p.num_nodes = 4;
  p.workload.keyspace = 20'000;
  p.workload.zipf_alpha = 0.99;
  p.workload.write_ratio = c.write_ratio;
  p.cache_capacity = 64;
  p.window_per_node = 16;
  p.record_history = true;
  p.seed = 11;
  RackSimulation rack(p);
  const RackReport r = rack.Run(250'000, 50'000);

  // Conservation: hits + misses == completed; rates consistent.
  EXPECT_NEAR(r.hit_mrps + r.miss_mrps, r.mrps, 1e-6);
  EXPECT_GT(r.completed, 0u);
  if (c.kind != SystemKind::kCcKvs) {
    EXPECT_EQ(r.hit_mrps, 0.0);
    EXPECT_EQ(r.updates_sent + r.invalidations_sent + r.acks_sent, 0u);
  } else if (c.write_ratio > 0) {
    EXPECT_GT(r.updates_sent, 0u);
    if (c.model == ConsistencyModel::kLin) {
      // Every inv gets exactly one ack, eventually (drained at run end).
      EXPECT_GT(r.invalidations_sent, 0u);
    } else {
      EXPECT_EQ(r.invalidations_sent, 0u);
    }
  }

  // Every system must at minimum preserve write atomicity; the cached systems
  // must satisfy their advertised model in steady state.
  EXPECT_EQ(rack.history().CheckWriteAtomicity(), "");
  if (c.kind == SystemKind::kCcKvs && c.model == ConsistencyModel::kLin) {
    EXPECT_EQ(rack.history().CheckPerKeyLinearizability(), "");
  }
  if (c.kind == SystemKind::kCcKvs) {
    EXPECT_EQ(rack.history().CheckPerKeySequentialConsistency(), "");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RackConservation,
    testing::Values(RackCase{SystemKind::kBase, ConsistencyModel::kNone, 0.0},
                    RackCase{SystemKind::kBase, ConsistencyModel::kNone, 0.1},
                    RackCase{SystemKind::kBaseErew, ConsistencyModel::kNone, 0.05},
                    RackCase{SystemKind::kCcKvs, ConsistencyModel::kSc, 0.0},
                    RackCase{SystemKind::kCcKvs, ConsistencyModel::kSc, 0.05},
                    RackCase{SystemKind::kCcKvs, ConsistencyModel::kSc, 0.2},
                    RackCase{SystemKind::kCcKvs, ConsistencyModel::kLin, 0.05},
                    RackCase{SystemKind::kCcKvs, ConsistencyModel::kLin, 0.2}));

// ---------------------------------------------------------------------------
// Model checker sanity across scopes (cheap scopes only; the heavyweight run
// lives in bench/sec52_model_check)
// ---------------------------------------------------------------------------

class CheckerScope : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CheckerScope, AllInvariantsHold) {
  const auto [nodes, writes] = GetParam();
  ModelCheckerConfig cfg;
  cfg.num_nodes = nodes;
  cfg.total_writes = writes;
  const ModelCheckerResult r = CheckLinProtocol(cfg);
  EXPECT_TRUE(r.ok) << r.failure;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CheckerScope,
                         testing::Combine(testing::Values(2, 3, 4),
                                          testing::Values(1, 2)));

// ---------------------------------------------------------------------------
// Epoch-transition scopes (cheap bounded scopes; the larger sweeps live in
// bench/sec52_model_check).  Every interleaving of announce / fill /
// write-back / gated shard op / install-barrier traffic across one epoch
// change must stay consistent and deadlock-free.
// ---------------------------------------------------------------------------

struct TransitionCase {
  ConsistencyModel model;
  int puts;
  int gets;
  // The scope's exact state space: a change that narrows the search fails
  // here, where a lower bound would still pass.
  std::uint64_t states;
  std::uint64_t transitions;
  std::uint64_t terminals;
  std::uint64_t depth;
};

class TransitionScope : public testing::TestWithParam<TransitionCase> {};

TEST_P(TransitionScope, ExhaustiveAndViolationFree) {
  const TransitionCase c = GetParam();
  TransitionScopeConfig cfg;
  cfg.num_nodes = 2;
  cfg.model = c.model;
  cfg.puts = c.puts;
  cfg.gets = c.gets;
  const ModelCheckerResult r = CheckEpochTransition(cfg);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_EQ(r.states_explored, c.states);
  EXPECT_EQ(r.transitions, c.transitions);
  EXPECT_EQ(r.terminal_states, c.terminals);
  EXPECT_EQ(r.max_depth, c.depth);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransitionScope,
    testing::Values(TransitionCase{ConsistencyModel::kLin, 0, 1, 33, 60, 1, 6},
                    TransitionCase{ConsistencyModel::kLin, 1, 1, 277, 540, 9, 10},
                    TransitionCase{ConsistencyModel::kSc, 1, 1, 145, 294, 5, 8},
                    TransitionCase{ConsistencyModel::kSc, 2, 1, 538, 1293, 10, 10},
                    TransitionCase{ConsistencyModel::kLin, 2, 2, 4081, 10735, 45, 15},
                    TransitionCase{ConsistencyModel::kSc, 2, 2, 2146, 5838, 25, 12}));

// The BFS rebuilds every state by replaying its path from a fresh world, which
// is sound only if a replay always lands in the same state: two runs of one
// scope must explore the same space.
TEST(TransitionScope, Deterministic) {
  TransitionScopeConfig cfg;
  cfg.puts = 2;
  cfg.gets = 2;
  const ModelCheckerResult a = CheckEpochTransition(cfg);
  const ModelCheckerResult b = CheckEpochTransition(cfg);
  ASSERT_TRUE(a.ok) << a.failure;
  EXPECT_EQ(a.states_explored, b.states_explored);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.terminal_states, b.terminal_states);
  EXPECT_EQ(a.max_depth, b.max_depth);
}

}  // namespace
}  // namespace cckvs
