// The hot-set subsystem: adaptive, protocol-safe epoch transitions (§4).
//
// One HotSetManager per node owns everything about hot-set membership that
// used to be scattered through the rack driver: coordinator sampling, epoch
// publication, installing announced hot sets into the SymmetricCache,
// write-back of dirty evictions, cache fills, and the bookkeeping that makes
// all of it safe against the consistency protocol.  It is the ONE transition
// state machine: the Drive* entry points both decide a transition and execute
// it through the HotSetHost hooks (hot_set_host.h), so the discrete-event
// RackSimulation, the live multithreaded LiveRack and the model checker's
// transition scope all run the identical logic — hosts differ only in how the
// published messages travel (WireBatch frames on the simulated or the live
// fabric vs. the model checker's explicit FIFO lanes) and in where ops parked
// on the shard residency gate wait.
//
// Protocol safety has two parts:
//
//  * Engine membership hooks.  Evicting a key with an in-flight Lin write,
//    queued local writes or parked readers would strand engine state (the
//    write could never collect its acks; its session would hang).  The
//    manager asks CoherenceEngine::EvictionSafe first and *defers* unsafe
//    evictions; hosts call RetryDeferred as protocol progress (acks, updates,
//    fills) releases keys.  An epoch counts as installed only when nothing is
//    deferred.
//
//  * The install barrier.  Every node broadcasts EpochInstalledMsg after
//    finishing an install.  Because a node's pre-eviction updates travel the
//    same FIFO lanes as its install confirmation, "all nodes installed epoch
//    E" implies every update to a key evicted in E has reached the key's home
//    node — the home shard is a superset of everything any cache ever held.
//    Homes track their evicted keys in a pending-clear set until the barrier
//    completes; the live runtime keeps the shard's cache-residency gate up
//    (store::Partition::MarkCacheResident) for exactly that window, which is
//    what lets its direct-shard miss path stay per-key SC/Lin through churn.
//    The coordinator uses the same information to never re-admit a key whose
//    eviction has not settled, so fills are always taken from an
//    authoritative shard.

#ifndef CCKVS_TOPK_HOT_SET_MANAGER_H_
#define CCKVS_TOPK_HOT_SET_MANAGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cache/symmetric_cache.h"
#include "src/common/types.h"
#include "src/protocol/engine.h"
#include "src/topk/epoch_coordinator.h"
#include "src/topk/hot_set_host.h"
#include "src/topk/hot_set_messages.h"

namespace cckvs {

struct HotSetManagerConfig {
  NodeId self = 0;
  int num_nodes = 0;
  // This node samples the request stream and closes epochs (one per rack).
  bool coordinator = false;
  EpochCoordinatorConfig epoch;  // coordinator role only
  // Shard homing, so the manager can split write-back/fill duties.
  std::function<NodeId(Key)> home_of;
};

class HotSetManager {
 public:
  // `host` executes transitions (writebacks, gate+fill snapshots, publishing,
  // gate lifts) when the Drive* entry points are used; tests that inspect raw
  // Transitions may pass nullptr and call Apply/RetryDeferred/OnPeerInstalled
  // directly instead.
  HotSetManager(const HotSetManagerConfig& config, SymmetricCache* cache,
                CoherenceEngine* engine, HotSetHost* host = nullptr);

  // ---------------------------------------------------------------------
  // Coordinator role
  // ---------------------------------------------------------------------

  bool coordinator() const { return coordinator_ != nullptr; }

  // Feeds one request into the popularity summary.  Returns true when this
  // request closed an epoch: announcement() is fresh and must be broadcast
  // (and Apply()d locally).  Keys whose previous eviction has not settled
  // rack-wide are withheld from the published set (see header comment).
  bool Sample(Key key);
  const HotSetAnnounceMsg& announcement() const { return announcement_; }

  // Tells the coordinator about a hot set installed out of band (oracle
  // prefill), so keys the first epoch drops from it go through the same
  // eviction-settlement tracking as any published key.
  void SeedPublished(const std::vector<Key>& keys);

  std::uint64_t epochs_closed() const;
  std::size_t last_epoch_churn() const;

  // ---------------------------------------------------------------------
  // Member role — host-driven entry points
  // ---------------------------------------------------------------------
  //
  // The ONE shared transition machine: both hosts (sim RackNode, live
  // LiveNode) and the model checker's transition scope call these, and the
  // manager executes every host duty through the HotSetHost hooks.  Hosts no
  // longer interpret Transitions themselves.

  // Installs an announced hot set and executes the resulting transition:
  // write-backs, gate+snapshot+publish for fill duties, the install-barrier
  // confirmation, and gate lifts this node's own progress completed.
  void DriveAnnounce(const HotSetAnnounceMsg& msg);

  // Re-attempts deferred evictions and executes whatever completes; call when
  // protocol progress (acks, updates, fills) may have released keys.
  void DriveDeferred();

  // Barrier progress from a peer; lifts the residency gate (host hook) for
  // every key homed here whose eviction just settled rack-wide.
  void DrivePeerInstalled(NodeId peer, std::uint64_t epoch);

  // ---------------------------------------------------------------------
  // Member role — raw transition steps (unit tests, introspection)
  // ---------------------------------------------------------------------

  // What the host owes the rack after a membership step.
  struct Transition {
    // Dirty evictions homed at this node: apply to the local shard.
    std::vector<SymmetricCache::Eviction> home_writebacks;
    // Keys admitted and homed here: snapshot the shard (live hosts via
    // MarkCacheResident), ApplyFill locally, broadcast the FillMsg.
    std::vector<Key> fill_duties;
    // Keys homed here whose eviction settled rack-wide: the shard is
    // authoritative again (live hosts clear the residency gate; the sim
    // releases any parked shard requests).
    std::vector<Key> ungated;
    // This node finished installing installed_epoch: broadcast
    // EpochInstalledMsg{installed_epoch}.
    bool installed_advanced = false;
    std::uint64_t installed_epoch = 0;
  };

  // Installs an announced hot set (idempotent; stale epochs are no-ops).
  Transition Apply(const HotSetAnnounceMsg& msg);

  // Re-attempts deferred evictions; call when protocol progress may have
  // released keys (acks, updates, fills).
  Transition RetryDeferred();
  bool HasDeferred() const { return !deferred_.empty(); }

  // Installs a fill into the cache (and wakes the engine's parked work).
  // Fills that arrive before their announce are stashed and consumed by
  // Apply; fills for departed keys are dropped.  Returns true when applied.
  // Traffic recorded by NoteUncached* supersedes stale fills (see below).
  bool ApplyFill(const FillMsg& fill);

  // The fill-vs-announce race (found by the model checker's transition
  // scope): a node that has not yet applied an epoch's announce drops
  // consistency traffic for the keys that epoch admits — it neither caches
  // them nor homes them — yet it still acks invalidations, so a writer's Lin
  // write can COMPLETE while this node knows nothing of it.  If the home's
  // fill (snapshotted before that write) then arrives via the stash, the node
  // would install the superseded value as Valid and serve stale reads.
  // Hosts therefore report dropped traffic for uncached keys homed
  // elsewhere; ApplyFill installs the newest update instead of a stale fill,
  // and an invalidation-only record leaves the entry Invalid at the promised
  // timestamp so the in-flight update (same ts) completes it.  Records are
  // pruned on every announce (keys outside the new target set).
  void NoteUncachedUpdate(Key key, const Value& value, Timestamp ts);
  void NoteUncachedInvalidate(Key key, Timestamp ts);

  // Pre-admission traffic records, sorted by key (model-checker encoding).
  struct AheadTraffic {
    Key key = 0;
    Timestamp inv_ts{};
    Timestamp upd_ts{};
    Value upd_value;
  };
  std::vector<AheadTraffic> SeenAheadTraffic() const;

  // Barrier progress from a peer.  Returns newly settled keys homed here
  // (same meaning as Transition::ungated).
  std::vector<Key> OnPeerInstalled(NodeId peer, std::uint64_t epoch);

  // True while shard access to `key` (homed here) must wait for the barrier.
  bool ShardGated(Key key) const { return pending_clear_.count(key) != 0; }
  // The gated keys themselves, each with the epoch whose barrier it awaits.
  // The live node's transition timeline (runtime/tracing.h) opens one
  // gate_closed span per entry and closes it at the LiftGate hook.
  const std::unordered_map<Key, std::uint64_t>& pending_clear() const {
    return pending_clear_;
  }

  std::uint64_t target_epoch() const { return target_epoch_; }
  std::size_t deferred_evictions() const { return deferred_.size(); }

  std::uint64_t installed_epoch() const { return installed_[config_.self]; }
  // Peer view of the barrier (model-checker state encoding).
  std::uint64_t peer_installed_epoch(NodeId node) const { return installed_[node]; }
  // Fills that arrived ahead of their announce (model-checker state encoding;
  // sorted by key).
  std::vector<FillMsg> StashedFills() const;

 private:
  void TryEvict(Key key, Transition* t);
  void FinishInstall(Transition* t);
  // Executes a transition's host duties through the HotSetHost hooks.
  void Execute(const Transition& t);
  std::uint64_t MinInstalled() const;
  void CollectUngated(std::vector<Key>* out);

  HotSetManagerConfig config_;
  SymmetricCache* cache_;
  CoherenceEngine* engine_;
  HotSetHost* host_;

  // Coordinator state.
  std::unique_ptr<EpochCoordinator> coordinator_;
  HotSetAnnounceMsg announcement_;
  std::unordered_set<Key> published_;  // membership of the last announcement
  // Keys dropped from the published set, by the epoch that dropped them;
  // ineligible for re-admission until that epoch settles.
  std::unordered_map<Key, std::uint64_t> published_evictions_;

  // Member state.
  std::uint64_t target_epoch_ = 0;
  std::unordered_set<Key> target_;    // membership this node converges to
  std::unordered_set<Key> deferred_;  // evictions blocked by engine state
  std::unordered_map<Key, FillMsg> fill_stash_;  // fills that beat their announce
  // Dropped pre-admission traffic per key (see NoteUncached*); bounded by the
  // announce-time prune.
  struct AheadRecord {
    Timestamp inv_ts{};
    Timestamp upd_ts{};
    Value upd_value;
  };
  std::unordered_map<Key, AheadRecord> seen_ahead_;
  // Keys homed here evicted in epoch `value`, awaiting the install barrier.
  std::unordered_map<Key, std::uint64_t> pending_clear_;
  std::vector<std::uint64_t> installed_;  // per-node installed epoch, self included
};

// The inbound consistency rules, one copy for every host (RackNode, LiveNode
// and the model checker), so the fill-vs-announce fix above lives in one
// place.  Hosts keep their own costs, credit returns, retries and L1 drops
// around these calls.  `hot_mgr` is null on a host without online epochs.
//
// An update goes to the engine while the key is cached here.  An uncached
// key completes its write-back into the home shard when this node is its
// home — `home_shard(key)` returns that shard, or null when the key is homed
// elsewhere — and is otherwise recorded ahead of its pending admission.
template <typename HomeShard>
void DeliverUpdate(NodeId src, const UpdateMsg& msg, const SymmetricCache& cache,
                   CoherenceEngine* engine, HotSetManager* hot_mgr,
                   HomeShard&& home_shard) {
  if (cache.Find(msg.key) != nullptr) {
    engine->OnUpdate(src, msg);
  } else if (auto* shard = home_shard(msg.key)) {
    shard->Apply(msg.key, msg.value, msg.ts);
  } else if (hot_mgr != nullptr) {
    hot_mgr->NoteUncachedUpdate(msg.key, msg.value, msg.ts);
  }
}

// An invalidation of an uncached key is recorded ahead of its pending
// admission, and the engine always sees it: it acks even when cold, because
// the writer counts every peer's ack.
inline void DeliverInvalidate(NodeId src, const InvalidateMsg& msg,
                              const SymmetricCache& cache, CoherenceEngine* engine,
                              HotSetManager* hot_mgr) {
  if (hot_mgr != nullptr && cache.Find(msg.key) == nullptr) {
    hot_mgr->NoteUncachedInvalidate(msg.key, msg.ts);
  }
  engine->OnInvalidate(src, msg);
}

}  // namespace cckvs

#endif  // CCKVS_TOPK_HOT_SET_MANAGER_H_
