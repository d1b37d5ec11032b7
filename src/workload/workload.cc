#include "src/workload/workload.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/common/check.h"
#include "src/common/hash.h"

namespace cckvs {
namespace {

constexpr char kWriteMagic = 'W';
constexpr char kSynthMagic = 'S';

}  // namespace

void SynthesizeValueInto(Key key, std::uint32_t value_bytes, Value* out) {
  CCKVS_CHECK_GE(value_bytes, 1u);
  out->resize(value_bytes);
  Value& v = *out;
  v[0] = kSynthMagic;
  // Deterministic pattern derived from the key.
  std::uint64_t state = key ^ 0x5eed;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (i % 8 == 1) {
      state = Mix64(state);
    }
    v[i] = static_cast<char>(state >> ((i % 8) * 8));
  }
}

Value SynthesizeValue(Key key, std::uint32_t value_bytes) {
  Value v;
  SynthesizeValueInto(key, value_bytes, &v);
  return v;
}

void MakeWriteValueInto(std::uint32_t writer_tag, std::uint64_t seq,
                        std::uint32_t value_bytes, Value* out) {
  CCKVS_CHECK_GE(value_bytes, 13u);  // magic + tag + seq(8) must fit
  out->assign(value_bytes, '\0');
  Value& v = *out;
  v[0] = kWriteMagic;
  std::memcpy(&v[1], &writer_tag, sizeof(writer_tag));
  std::memcpy(&v[5], &seq, sizeof(seq));
}

Value MakeWriteValue(std::uint32_t writer_tag, std::uint64_t seq,
                     std::uint32_t value_bytes) {
  Value v;
  MakeWriteValueInto(writer_tag, seq, value_bytes, &v);
  return v;
}

bool ParseWriteValue(const Value& value, std::uint32_t* writer_tag,
                     std::uint64_t* seq) {
  if (value.size() < 13 || value[0] != kWriteMagic) {
    return false;
  }
  if (writer_tag != nullptr) {
    std::memcpy(writer_tag, value.data() + 1, sizeof(*writer_tag));
  }
  if (seq != nullptr) {
    std::memcpy(seq, value.data() + 5, sizeof(*seq));
  }
  return true;
}

WorkloadGenerator::WorkloadGenerator(const WorkloadConfig& config,
                                     std::uint32_t writer_tag, std::uint64_t seed)
    : config_(config),
      sampler_(config.keyspace, config.zipf_alpha),
      scrambler_(config.keyspace, config.scramble_seed),
      rng_(seed),
      writer_tag_(writer_tag),
      memo_(scrambler_.mean_walk() >= kMemoMinWalk
                ? std::min<std::uint64_t>(kMemoRanks, config.keyspace)
                : 0,
            kNotMemoized) {
  CCKVS_CHECK_GE(config.keyspace, 1u);
  CCKVS_CHECK_GE(config.write_ratio, 0.0);
  CCKVS_CHECK_LE(config.write_ratio, 1.0);
  if (config.node_rank_stride != 0) {
    rank_offset_ = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(writer_tag) * config.node_rank_stride %
        config.keyspace);
  }
}

Key WorkloadGenerator::KeyOfRankAt(std::uint64_t rank0, std::uint64_t phase) const {
  CCKVS_DCHECK_LT(rank0, config_.keyspace);
  // Both rotations add two ranks below keyspace, so one conditional
  // subtraction wraps the sum.
  if (config_.drift_period_ops != 0 && config_.drift_rank_shift != 0) {
    // Rotate ranks through the (bijective) scrambler domain: each phase the
    // top ranks land on keys that were drift_rank_shift ranks deeper before.
    const auto shift = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(phase) * config_.drift_rank_shift %
        config_.keyspace);
    rank0 += shift;
    if (rank0 >= config_.keyspace) {
      rank0 -= config_.keyspace;
    }
  }
  if (rank_offset_ != 0) {
    // Per-node skew: this generator's rank r is everyone else's rank
    // (r + offset) — the nodes disagree on which keys are hot.
    rank0 += rank_offset_;
    if (rank0 >= config_.keyspace) {
      rank0 -= config_.keyspace;
    }
  }
  return scrambler_.RankToKey(rank0);
}

std::vector<Key> WorkloadGenerator::HottestKeysAt(std::size_t k,
                                                 std::uint64_t phase) const {
  std::vector<Key> keys;
  keys.reserve(k);
  for (std::uint64_t r = 0; r < k && r < config_.keyspace; ++r) {
    keys.push_back(KeyOfRankAt(r, phase));
  }
  return keys;
}

void WorkloadGenerator::NextInto(Op* op) {
  ++ops_;
  const std::uint64_t rank0 = sampler_.Sample(rng_) - 1;  // sampler is 1-based
  const std::uint64_t phase = drift_phase();
  if (phase != memo_phase_) {
    std::fill(memo_.begin(), memo_.end(), kNotMemoized);
    memo_phase_ = phase;
  }
  if (rank0 < memo_.size()) {
    Key& memo = memo_[rank0];
    if (memo == kNotMemoized) {
      memo = KeyOfRankAt(rank0, phase);
    }
    op->key = memo;
  } else {
    op->key = KeyOfRankAt(rank0, phase);
  }
  if (config_.write_ratio > 0.0 && rng_.NextBool(config_.write_ratio)) {
    op->type = OpType::kPut;
    MakeWriteValueInto(writer_tag_, seq_++, config_.value_bytes, &op->value);
  } else {
    op->type = OpType::kGet;
  }
}

Op WorkloadGenerator::Next() {
  Op op;
  NextInto(&op);
  return op;
}

std::uint64_t PerThreadSeed(std::uint64_t seed, std::uint32_t t) {
  return Mix64(seed ^ (0x9e37u + t));
}

std::vector<WorkloadGenerator> MakePerThreadGenerators(const WorkloadConfig& config,
                                                       int threads,
                                                       std::uint64_t seed) {
  std::vector<WorkloadGenerator> gens;
  gens.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    gens.emplace_back(config, /*writer_tag=*/static_cast<std::uint32_t>(t),
                      PerThreadSeed(seed, static_cast<std::uint32_t>(t)));
  }
  return gens;
}

}  // namespace cckvs
