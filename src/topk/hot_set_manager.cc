#include "src/topk/hot_set_manager.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace cckvs {

HotSetManager::HotSetManager(const HotSetManagerConfig& config,
                             SymmetricCache* cache, CoherenceEngine* engine,
                             HotSetHost* host)
    : config_(config),
      cache_(cache),
      engine_(engine),
      host_(host),
      installed_(static_cast<std::size_t>(config.num_nodes), 0) {
  CCKVS_CHECK_GE(config_.num_nodes, 1);
  CCKVS_CHECK_LT(config_.self, config_.num_nodes);
  CCKVS_CHECK(config_.home_of != nullptr);
  CCKVS_CHECK(cache_ != nullptr);
  CCKVS_CHECK(engine_ != nullptr);
  if (config_.coordinator) {
    coordinator_ = std::make_unique<EpochCoordinator>(config_.epoch);
  }
}

// ---------------------------------------------------------------------------
// Coordinator role
// ---------------------------------------------------------------------------

std::uint64_t HotSetManager::epochs_closed() const {
  return coordinator_ != nullptr ? coordinator_->epoch() : 0;
}

std::size_t HotSetManager::last_epoch_churn() const {
  return coordinator_ != nullptr ? coordinator_->last_epoch_churn() : 0;
}

void HotSetManager::SeedPublished(const std::vector<Key>& keys) {
  CCKVS_CHECK(coordinator_ != nullptr);
  published_.clear();
  published_.insert(keys.begin(), keys.end());
}

bool HotSetManager::Sample(Key key) {
  CCKVS_CHECK(coordinator_ != nullptr);
  if (!coordinator_->OnRequest(key)) {
    return false;
  }
  // Publish the fresh top-k, minus keys whose previous eviction has not
  // settled: their home shards are not authoritative yet, so a fill taken now
  // could resurrect a value some cache already moved past.  Settled entries
  // are dropped here so the map stays bounded by in-flight churn.
  const std::uint64_t min_installed = MinInstalled();
  for (auto it = published_evictions_.begin(); it != published_evictions_.end();) {
    it = it->second <= min_installed ? published_evictions_.erase(it) : ++it;
  }
  std::vector<Key> keys;
  keys.reserve(coordinator_->CurrentHotSet().size());
  for (const Key k : coordinator_->CurrentHotSet()) {
    if (published_evictions_.count(k) != 0) {
      continue;  // unsettled; eligible again once every node confirms
    }
    keys.push_back(k);
  }
  const std::uint64_t epoch = coordinator_->epoch();
  for (const Key k : published_) {
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
      published_evictions_[k] = epoch;
    }
  }
  published_.clear();
  published_.insert(keys.begin(), keys.end());
  announcement_ = HotSetAnnounceMsg{epoch, std::move(keys)};
  return true;
}

// ---------------------------------------------------------------------------
// Member role — host-driven entry points (the shared transition machine)
// ---------------------------------------------------------------------------

void HotSetManager::Execute(const Transition& t) {
  CCKVS_CHECK(host_ != nullptr);
  // Order matters and is identical on every host.  Write-backs land before
  // fills are snapshotted (an admitted key's snapshot must see any eviction
  // flush this same transition produced).  Fills are applied locally before
  // they are published, so the home cache serves the key from the instant its
  // shard gate goes up.  The install confirmation goes out after the fills so
  // it stays behind them on the FIFO lanes, and gates lift last — our own
  // install can be the final piece of a barrier.
  for (const SymmetricCache::Eviction& ev : t.home_writebacks) {
    host_->ApplyWriteback(ev);
  }
  if (!t.fill_duties.empty()) {
    std::vector<FillMsg> fills;
    fills.reserve(t.fill_duties.size());
    for (const Key key : t.fill_duties) {
      const HotSetHost::FillSnapshot snap = host_->GateAndSnapshot(key);
      FillMsg fill{key, snap.value, snap.ts, target_epoch_};
      ApplyFill(fill);
      fills.push_back(std::move(fill));
    }
    host_->PublishFills(fills);
  }
  if (t.installed_advanced) {
    host_->PublishInstalled(EpochInstalledMsg{t.installed_epoch});
  }
  for (const Key key : t.ungated) {
    host_->LiftGate(key);
  }
}

void HotSetManager::DriveAnnounce(const HotSetAnnounceMsg& msg) {
  Execute(Apply(msg));
}

bool HotSetManager::DriveDeferred() {
  if (!HasDeferred()) {
    return false;
  }
  Execute(RetryDeferred());
  return true;
}

void HotSetManager::DrivePeerInstalled(NodeId peer, std::uint64_t epoch) {
  CCKVS_CHECK(host_ != nullptr);
  for (const Key key : OnPeerInstalled(peer, epoch)) {
    host_->LiftGate(key);
  }
}

std::vector<FillMsg> HotSetManager::StashedFills() const {
  std::vector<FillMsg> fills;
  fills.reserve(fill_stash_.size());
  for (const auto& [key, fill] : fill_stash_) {
    fills.push_back(fill);
  }
  std::sort(fills.begin(), fills.end(),
            [](const FillMsg& a, const FillMsg& b) { return a.key < b.key; });
  return fills;
}

// ---------------------------------------------------------------------------
// Member role — raw transition steps
// ---------------------------------------------------------------------------

void HotSetManager::TryEvict(Key key, Transition* t) {
  if (!engine_->EvictionSafe(key)) {
    deferred_.insert(key);
    return;
  }
  SymmetricCache::Eviction ev;
  const bool dirty = cache_->Evict(key, &ev);
  deferred_.erase(key);
  if (config_.home_of(key) == config_.self) {
    // Only the home flushes (§4); symmetric contents make its copy
    // sufficient once the install barrier has drained in-flight updates.
    if (dirty) {
      t->home_writebacks.push_back(std::move(ev));
    }
    pending_clear_[key] = target_epoch_;
  }
}

void HotSetManager::FinishInstall(Transition* t) {
  if (!deferred_.empty() || installed_[config_.self] >= target_epoch_) {
    return;
  }
  installed_[config_.self] = target_epoch_;
  t->installed_advanced = true;
  t->installed_epoch = target_epoch_;
  // Our own progress can be the last piece of a barrier.
  CollectUngated(&t->ungated);
}

HotSetManager::Transition HotSetManager::Apply(const HotSetAnnounceMsg& msg) {
  Transition t;
  if (msg.epoch <= target_epoch_) {
    return t;  // duplicate or stale announce
  }
  target_epoch_ = msg.epoch;
  target_.clear();
  target_.insert(msg.keys.begin(), msg.keys.end());

  for (const Key key : cache_->Keys()) {
    if (target_.count(key) == 0) {
      TryEvict(key, &t);
    } else {
      deferred_.erase(key);  // re-targeted before its eviction went through
    }
  }
  for (const Key key : msg.keys) {
    if (cache_->Find(key) != nullptr) {
      continue;  // surviving member keeps its value
    }
    cache_->Admit(key);
    // A re-admission supersedes any not-yet-settled eviction of this key: the
    // new cached era owns the shard gate again, so the old era's pending
    // clear must not fire when its (possibly straggling) barrier completes.
    pending_clear_.erase(key);
    if (config_.home_of(key) == config_.self) {
      t.fill_duties.push_back(key);
    } else if (auto it = fill_stash_.find(key); it != fill_stash_.end()) {
      ApplyFill(it->second);  // the fill beat its announce here
      fill_stash_.erase(it);
    }
  }
  // Drop stashed fills this announce did not consume, and pre-admission
  // traffic records for keys the epoch did not admit (keeps both bounded).
  for (auto it = fill_stash_.begin(); it != fill_stash_.end();) {
    it = it->second.epoch <= target_epoch_ ? fill_stash_.erase(it) : ++it;
  }
  for (auto it = seen_ahead_.begin(); it != seen_ahead_.end();) {
    it = target_.count(it->first) == 0 ? seen_ahead_.erase(it) : ++it;
  }
  FinishInstall(&t);
  return t;
}

HotSetManager::Transition HotSetManager::RetryDeferred() {
  Transition t;
  const std::vector<Key> retry(deferred_.begin(), deferred_.end());
  for (const Key key : retry) {
    TryEvict(key, &t);
  }
  FinishInstall(&t);
  return t;
}

bool HotSetManager::ApplyFill(const FillMsg& fill) {
  if (CacheEntry* entry = cache_->Find(fill.key); entry != nullptr) {
    Value value = fill.value;
    Timestamp ts = fill.ts;
    Timestamp promised{};  // a newer write known only by its invalidation
    if (auto it = seen_ahead_.find(fill.key); it != seen_ahead_.end()) {
      // Traffic for this key was dropped before the announce admitted it; the
      // fill must not resurrect a value those messages already moved past.
      // (Settled evictions keep the coordinator from re-admitting a key whose
      // shard lags, so anything newer than the fill is current-era traffic.)
      const AheadRecord r = it->second;
      seen_ahead_.erase(it);
      if (r.upd_ts > ts) {
        value = r.upd_value;
        ts = r.upd_ts;
      }
      if (r.inv_ts > ts) {
        promised = r.inv_ts;
      }
    }
    cache_->Fill(fill.key, value, ts);
    if (promised != Timestamp{} && entry->state() == CacheState::kValid &&
        promised > entry->ts()) {
      // Only the invalidation of a newer write was seen; its update is still
      // in flight.  Leave the entry Invalid at the promised timestamp — the
      // matching update (timestamp equality) will make it Valid, exactly as
      // if the invalidation had hit a cached entry.
      entry->set_ts(promised);
      entry->set_state(CacheState::kInvalid);
    }
    engine_->OnFilled(fill.key);
    return true;
  }
  if (fill.epoch > target_epoch_) {
    // The fill overtook its announce (different senders, unordered lanes):
    // keep it until Apply admits the key, or a newer epoch supersedes it.
    fill_stash_[fill.key] = fill;
  }
  return false;
}

void HotSetManager::NoteUncachedUpdate(Key key, const Value& value, Timestamp ts) {
  AheadRecord& r = seen_ahead_[key];
  if (ts > r.upd_ts) {
    r.upd_ts = ts;
    r.upd_value = value;
  }
}

void HotSetManager::NoteUncachedInvalidate(Key key, Timestamp ts) {
  AheadRecord& r = seen_ahead_[key];
  r.inv_ts = std::max(r.inv_ts, ts);
}

std::vector<HotSetManager::AheadTraffic> HotSetManager::SeenAheadTraffic() const {
  std::vector<AheadTraffic> out;
  out.reserve(seen_ahead_.size());
  for (const auto& [key, r] : seen_ahead_) {
    out.push_back(AheadTraffic{key, r.inv_ts, r.upd_ts, r.upd_value});
  }
  std::sort(out.begin(), out.end(),
            [](const AheadTraffic& a, const AheadTraffic& b) { return a.key < b.key; });
  return out;
}

std::vector<Key> HotSetManager::OnPeerInstalled(NodeId peer, std::uint64_t epoch) {
  CCKVS_CHECK_LT(peer, config_.num_nodes);
  if (epoch > installed_[peer]) {
    installed_[peer] = epoch;
  }
  std::vector<Key> ungated;
  CollectUngated(&ungated);
  return ungated;
}

std::uint64_t HotSetManager::MinInstalled() const {
  return *std::min_element(installed_.begin(), installed_.end());
}

void HotSetManager::CollectUngated(std::vector<Key>* out) {
  const std::uint64_t min_installed = MinInstalled();
  for (auto it = pending_clear_.begin(); it != pending_clear_.end();) {
    if (it->second <= min_installed) {
      out->push_back(it->first);
      it = pending_clear_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace cckvs
