#include "src/topk/epoch_coordinator.h"

#include <cmath>
#include <utility>

#include "src/common/check.h"

namespace cckvs {

EpochCoordinator::EpochCoordinator(const EpochCoordinatorConfig& config)
    : config_(config),
      summary_(static_cast<std::size_t>(
          std::ceil(static_cast<double>(config.hot_set_size) * config.counter_headroom))),
      rng_(config.seed) {
  CCKVS_CHECK_GE(config.hot_set_size, 1u);
  CCKVS_CHECK_GT(config.sample_probability, 0.0);
  CCKVS_CHECK_LE(config.sample_probability, 1.0);
  CCKVS_CHECK_GE(config.counter_headroom, 1.0);
  CCKVS_CHECK_GE(config.requests_per_epoch, 1u);
}

bool EpochCoordinator::OnRequest(Key key) {
  if (config_.sample_probability >= 1.0 || rng_.NextBool(config_.sample_probability)) {
    summary_.Offer(key);
  }
  if (++seen_in_epoch_ >= config_.requests_per_epoch) {
    CloseEpoch();
    return true;
  }
  return false;
}

void EpochCoordinator::CloseEpoch() {
  seen_in_epoch_ = 0;
  ++epoch_;
  const auto entries = summary_.TopK(config_.hot_set_size);
  std::vector<Key> fresh;
  fresh.reserve(entries.size());
  for (const auto& e : entries) {
    fresh.push_back(e.key);
  }
  // Churn = size of the symmetric difference with the previous hot set.
  std::unordered_set<Key> previous(hot_set_.begin(), hot_set_.end());
  std::size_t added = 0;
  for (const Key k : fresh) {
    if (previous.erase(k) == 0) {
      ++added;
    }
  }
  last_churn_ = added + previous.size();
  hot_set_ = std::move(fresh);
  // Age the summary so the next epoch weights fresh traffic (shifted popularity
  // displaces stale counters within an epoch or two).
  summary_.DecayHalve();
}

}  // namespace cckvs
