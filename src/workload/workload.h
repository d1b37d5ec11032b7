// Workload generation (§7.2, substrate S11).
//
// The paper evaluates YCSB-style workloads: Zipfian key popularity with
// exponents {0.90, 0.99, 1.01} (0.99 is the YCSB default), a 250 M-key dataset,
// 8 B keys, values of 40 B / 256 B / 1 KB, and write ratios from 0 to 5%.
// Popularity ranks map to key ids through a seeded Feistel bijection so hot keys
// scatter across shards, as hashing scatters them in the real system.

#ifndef CCKVS_WORKLOAD_WORKLOAD_H_
#define CCKVS_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/common/zipf.h"

namespace cckvs {

struct WorkloadConfig {
  std::uint64_t keyspace = 250'000'000;
  double zipf_alpha = 0.99;  // 0 = uniform
  double write_ratio = 0.0;  // fraction of PUTs
  std::uint32_t value_bytes = 40;
  std::uint64_t scramble_seed = 0xcc5eed;  // shared by all generators of a run

  // Non-stationary popularity (drift).  Every drift_period_ops operations a
  // generator advances one drift phase: the rank-to-key mapping rotates by
  // drift_rank_shift ranks, so the keys holding the top ranks change while the
  // Zipf shape stays fixed.  Consecutive phases share max(0, k - shift) of
  // their k hottest keys, making the shift size a churn knob.  Phases are a
  // pure function of a generator's op count, so runs stay deterministic per
  // seed; generators on different nodes drift at their own (closely aligned)
  // paces, as real traffic shifts would reach frontends.  0 = stationary.
  std::uint64_t drift_period_ops = 0;
  std::uint64_t drift_rank_shift = 0;

  // Per-node popularity skew.  Generator with writer tag t samples ranks
  // rotated by t * node_rank_stride, so the nodes agree on the Zipf SHAPE but
  // not on WHICH keys hold the top ranks: local popularity != global
  // popularity, the regime where the node-private L1 tail (cache/l1_tail.h)
  // helps and the purely symmetric hot set cannot.  0 (default) keeps every
  // generator sampling the same ranking — the paper's workload.
  std::uint64_t node_rank_stride = 0;
};

struct Op {
  OpType type = OpType::kGet;
  Key key = 0;
  Value value;  // filled for PUTs
};

// Deterministic default value of a key that was never written (lazy
// materialization; see store::PartitionConfig::synthesize).
Value SynthesizeValue(Key key, std::uint32_t value_bytes);

// Same, writing into *out (resize reuses its capacity — no allocation once the
// buffer has grown to value_bytes; the zero-alloc hot path depends on this).
void SynthesizeValueInto(Key key, std::uint32_t value_bytes, Value* out);

// Builds a PUT payload that encodes (writer_tag, sequence) — globally unique per
// write when writer tags are unique, which is what the consistency checkers key
// on — padded to value_bytes.
Value MakeWriteValue(std::uint32_t writer_tag, std::uint64_t seq,
                     std::uint32_t value_bytes);

// Same, into *out (capacity-reusing; see SynthesizeValueInto).
void MakeWriteValueInto(std::uint32_t writer_tag, std::uint64_t seq,
                        std::uint32_t value_bytes, Value* out);

// Recovers (writer_tag, seq) from a write value; returns false for synthesized
// (never-written) values.
bool ParseWriteValue(const Value& value, std::uint32_t* writer_tag, std::uint64_t* seq);

// Seed for generator `t` of a run seeded with `seed`.  One derivation shared
// by the simulated rack (one generator per node) and the live runtime (one
// generator per node thread), so the two hosts replay identical op streams.
std::uint64_t PerThreadSeed(std::uint64_t seed, std::uint32_t t);

class WorkloadGenerator {
 public:
  // `writer_tag` must be unique per generator in a run (e.g. node id or session
  // id) so PUT payloads are globally unique.
  WorkloadGenerator(const WorkloadConfig& config, std::uint32_t writer_tag,
                    std::uint64_t seed);

  Op Next();

  // Like Next(), but reuses op->value's capacity (zero-alloc hot path).
  void NextInto(Op* op);

  // The key id of popularity rank `rank0` (0-based) at this generator's
  // current drift phase.  All generators of a run agree (same scramble seed)
  // when their phases agree.
  Key KeyOfRank(std::uint64_t rank0) const { return KeyOfRankAt(rank0, drift_phase()); }
  Key KeyOfRankAt(std::uint64_t rank0, std::uint64_t phase) const;

  // The k hottest key ids at the current drift phase (descending popularity):
  // the ground-truth hot set used to pre-fill symmetric caches for
  // steady-state experiments.  Phase 0 is the pre-drift oracle.
  std::vector<Key> HottestKeys(std::size_t k) const {
    return HottestKeysAt(k, drift_phase());
  }
  std::vector<Key> HottestKeysAt(std::size_t k, std::uint64_t phase) const;

  // Number of popularity shifts this generator has gone through.
  std::uint64_t drift_phase() const {
    return config_.drift_period_ops == 0 ? 0 : ops_ / config_.drift_period_ops;
  }

  const WorkloadConfig& config() const { return config_; }

 private:
  // NextInto memoizes KeyOfRankAt for the hottest kMemoRanks ranks (8 KB):
  // at Zipf 0.99 they draw most ops.  Filled lazily, cleared when the drift
  // phase changes; the op stream is unchanged.  Only where the scrambler
  // cycle-walks kMemoMinWalk passes or more on average (2.6 at 100k keys):
  // the memo test is a branch on the sampled rank that mispredicts about as
  // often as a top rank is drawn, and at ~1 pass (1M or 250M keys) that
  // costs more than the pass it saves.
  static constexpr std::size_t kMemoRanks = 1024;
  static constexpr double kMemoMinWalk = 2.0;
  static constexpr Key kNotMemoized = ~Key{0};

  WorkloadConfig config_;
  ZipfSampler sampler_;
  KeyScrambler scrambler_;
  Rng rng_;
  std::uint32_t writer_tag_;
  std::uint64_t rank_offset_ = 0;  // writer_tag * node_rank_stride mod keyspace
  std::uint64_t seq_ = 0;
  std::uint64_t ops_ = 0;
  std::vector<Key> memo_;  // rank0 -> key at memo_phase_, kNotMemoized when unset;
                           // empty when the memo is off
  std::uint64_t memo_phase_ = 0;
};

// One generator per concurrent client thread: thread t gets writer tag t (so
// PUT payloads stay globally unique) and PerThreadSeed(seed, t), while all
// share the config's scramble seed and therefore agree on the rank-to-key
// bijection — the property the symmetric hot set depends on.
std::vector<WorkloadGenerator> MakePerThreadGenerators(const WorkloadConfig& config,
                                                       int threads,
                                                       std::uint64_t seed);

}  // namespace cckvs

#endif  // CCKVS_WORKLOAD_WORKLOAD_H_
