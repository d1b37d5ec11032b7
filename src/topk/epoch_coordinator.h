// Epoch-based hot-set learning (§4).
//
// One node acts as the cache coordinator: it samples the request stream into a
// Space-Saving summary and, at each epoch boundary, publishes the new hot set
// (the keys every symmetric cache should hold).  Symmetric caching makes a
// single coordinator sufficient because all nodes observe the same distribution;
// centralizing it "naturally alleviates the burden of reaching a consensus on
// which items are popular".
//
// The class is deliberately transport-agnostic: the ccKVS cluster wires epoch
// publications into cache-fill messages; tests drive it directly.

#ifndef CCKVS_TOPK_EPOCH_COORDINATOR_H_
#define CCKVS_TOPK_EPOCH_COORDINATOR_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/topk/flat_space_saving.h"

namespace cckvs {

struct EpochCoordinatorConfig {
  std::size_t hot_set_size = 1000;  // k: cache capacity
  // Track more counters than k so near-boundary keys are ranked accurately.
  double counter_headroom = 4.0;
  // Request sampling probability (§4: "request sampling is used to alleviate
  // the performance impact of updating the frequency counter").
  double sample_probability = 0.01;
  std::uint64_t requests_per_epoch = 1'000'000;
  std::uint64_t seed = 42;
};

class EpochCoordinator {
 public:
  explicit EpochCoordinator(const EpochCoordinatorConfig& config);

  // Feeds one request.  Returns true when this request closed an epoch, i.e.
  // CurrentHotSet() was just refreshed.
  bool OnRequest(Key key);

  // The latest published hot set (descending popularity).  Empty before the
  // first epoch closes.
  const std::vector<Key>& CurrentHotSet() const { return hot_set_; }
  std::uint64_t epoch() const { return epoch_; }

  // Difference between the latest hot set and the previous one, for measuring
  // churn ("only a handful of keys removed/added every few seconds", §4).
  std::size_t last_epoch_churn() const { return last_churn_; }

 private:
  void CloseEpoch();

  EpochCoordinatorConfig config_;
  FlatSpaceSaving summary_;
  Rng rng_;
  std::uint64_t seen_in_epoch_ = 0;
  std::uint64_t epoch_ = 0;
  std::size_t last_churn_ = 0;
  std::vector<Key> hot_set_;
};

}  // namespace cckvs

#endif  // CCKVS_TOPK_EPOCH_COORDINATOR_H_
