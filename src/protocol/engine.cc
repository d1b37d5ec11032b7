#include "src/protocol/engine.h"

#include <utility>

#include "src/common/check.h"

namespace cckvs {

bool CoherenceEngine::Quiescent() const {
  for (const auto& [key, readers] : parked_readers_) {
    if (!readers.empty()) {
      return false;
    }
  }
  for (const auto& [key, writes] : queued_writes_) {
    if (!writes.empty()) {
      return false;
    }
  }
  return true;
}

bool CoherenceEngine::EvictionSafe(Key key) const {
  if (auto it = parked_readers_.find(key);
      it != parked_readers_.end() && !it->second.empty()) {
    return false;
  }
  if (auto it = queued_writes_.find(key);
      it != queued_writes_.end() && !it->second.empty()) {
    return false;
  }
  return true;
}

void CoherenceEngine::OnEvicted(Key key) {
  CCKVS_DCHECK(EvictionSafe(key));
  parked_readers_.erase(key);
  queued_writes_.erase(key);
}

void CoherenceEngine::WakeReaders(Key key) {
  auto it = parked_readers_.find(key);
  if (it == parked_readers_.end() || it->second.empty()) {
    return;
  }
  CacheEntry* entry = cache_->Find(key);
  if (entry == nullptr || entry->state() != CacheState::kValid) {
    return;  // still not readable; keep them parked
  }
  std::vector<ReadDone> readers = std::move(it->second);
  parked_readers_.erase(it);
  for (ReadDone& done : readers) {
    done(entry->value, entry->ts());
  }
}

// ---------------------------------------------------------------------------
// ScEngine
// ---------------------------------------------------------------------------

CoherenceEngine::WriteResult ScEngine::Write(Key key, const Value& value,
                                             WriteDone done) {
  CacheEntry* entry = cache_->Find(key);
  CCKVS_CHECK(entry != nullptr);
  ++stats_.writes;
  if (entry->state() == CacheState::kFilling) {
    // Writing over an unfilled entry would restart the key's Lamport clock at
    // 1 and could reuse a timestamp from before the key left the hot set;
    // wait for the fill, which carries the clock the shard reached.
    QueueWrite(key, value, std::move(done));
    return WriteResult::kPending;
  }
  ApplyWrite(key, entry, value, std::move(done));
  return WriteResult::kCompleted;
}

void ScEngine::ApplyWrite(Key key, CacheEntry* entry, const Value& value,
                          WriteDone done) {
  // Burckhardt-style: bump the Lamport clock, apply locally, broadcast, return.
  // Writes are asynchronous and reads that follow observe the new value at once.
  const Timestamp ts{entry->header.version + 1, self_};
  entry->value = value;
  entry->value_ts = ts;
  entry->set_ts(ts);
  entry->set_state(CacheState::kValid);
  entry->dirty = true;
  update_scratch_.key = key;
  update_scratch_.value = value;  // copy-assign reuses the scratch's capacity
  update_scratch_.ts = ts;
  sink_->BroadcastUpdate(update_scratch_);
  ++stats_.writes_completed;
  if (done != nullptr) {
    done();
  }
  WakeReaders(key);
}

void ScEngine::StartQueuedWrites(Key key) {
  auto it = queued_writes_.find(key);
  if (it == queued_writes_.end()) {
    return;
  }
  while (!it->second.empty()) {
    auto [value, done] = std::move(it->second.front());
    it->second.pop_front();
    CacheEntry* entry = cache_->Find(key);
    CCKVS_CHECK(entry != nullptr);  // queued writes defer eviction
    ApplyWrite(key, entry, value, std::move(done));
  }
  queued_writes_.erase(key);
}

CoherenceEngine::ReadResult ScEngine::Read(Key key, Value* value, Timestamp* ts,
                                           ReadDone done) {
  CacheEntry* entry = cache_->Find(key);
  CCKVS_CHECK(entry != nullptr);
  if (entry->state() == CacheState::kValid) {
    ReadHit(*entry, value, ts);
    return ReadResult::kHit;
  }
  // Only kFilling is reachable under SC (no Invalid/Write states).
  CCKVS_DCHECK(entry->state() == CacheState::kFilling);
  ParkReader(key, std::move(done));
  return ReadResult::kBlocked;
}

void ScEngine::OnUpdate(NodeId from, const UpdateMsg& msg) {
  (void)from;
  CacheEntry* entry = cache_->Find(msg.key);
  if (entry == nullptr) {
    return;  // key left the hot set (epoch churn); nothing to keep consistent
  }
  // Apply iff newer: bigger Lamport clock, writer id as tie-breaker.
  if (msg.ts > entry->ts()) {
    entry->value = msg.value;
    entry->value_ts = msg.ts;
    entry->set_ts(msg.ts);
    entry->set_state(CacheState::kValid);
    entry->dirty = true;
    ++stats_.updates_applied;
    WakeReaders(msg.key);
    // A remote update can be what makes a kFilling entry readable (the fill
    // itself will then be discarded as stale): release queued writes too.
    StartQueuedWrites(msg.key);
  } else {
    ++stats_.updates_discarded;
  }
}

void ScEngine::OnInvalidate(NodeId from, const InvalidateMsg& msg) {
  (void)from;
  (void)msg;
  CCKVS_CHECK(false && "SC protocol has no invalidations");
}

void ScEngine::OnAck(NodeId from, const AckMsg& msg) {
  (void)from;
  (void)msg;
  CCKVS_CHECK(false && "SC protocol has no acks");
}

// ---------------------------------------------------------------------------
// LinEngine
// ---------------------------------------------------------------------------

CoherenceEngine::WriteResult LinEngine::Write(Key key, const Value& value,
                                              WriteDone done) {
  CacheEntry* entry = cache_->Find(key);
  CCKVS_CHECK(entry != nullptr);
  ++stats_.writes;
  if (entry->write_in_flight || entry->state() == CacheState::kFilling) {
    // One in-flight write per key per node; later local writes queue behind it
    // (sessions on this node remain in session order).  Writes over unfilled
    // entries queue too: starting from version 0 would restart the key's
    // Lamport clock and could reuse a timestamp from a previous hot-set era.
    QueueWrite(key, value, std::move(done));
    return WriteResult::kPending;
  }
  StartWrite(key, entry, value, std::move(done));
  return WriteResult::kPending;
}

void LinEngine::StartQueuedWrites(Key key) {
  CacheEntry* entry = cache_->Find(key);
  if (entry == nullptr || entry->write_in_flight ||
      entry->state() == CacheState::kFilling) {
    return;
  }
  auto it = queued_writes_.find(key);
  if (it == queued_writes_.end() || it->second.empty()) {
    return;
  }
  auto [value, done] = std::move(it->second.front());
  it->second.pop_front();
  StartWrite(key, entry, value, std::move(done));
}

void LinEngine::StartWrite(Key key, CacheEntry* entry, const Value& value,
                           WriteDone done) {
  // Transition to the transient Write state and broadcast invalidations carrying
  // the new timestamp (Figure 7, phase 1).
  const Timestamp ts{entry->header.version + 1, self_};
  entry->set_ts(ts);
  entry->set_state(CacheState::kWrite);
  entry->write_in_flight = true;
  entry->pending_ts = ts;
  entry->pending_value = value;
  entry->superseded = false;
  entry->has_shadow = false;
  entry->header.ack_count = 0;
  pending_done_[key] = std::move(done);
  sink_->BroadcastInvalidate(InvalidateMsg{key, ts});
  if (num_nodes_ == 1) {
    CompleteWrite(key, entry);  // no sharers to invalidate
  }
}

void LinEngine::CompleteWrite(Key key, CacheEntry* entry) {
  // Phase 2: all sharers acknowledged; broadcast the value, then the put returns.
  // The old value is now invisible at every replica, which is what makes the
  // early return linearizable.
  update_scratch_.key = key;
  update_scratch_.value = entry->pending_value;  // copy-assign reuses capacity
  update_scratch_.ts = entry->pending_ts;
  sink_->BroadcastUpdate(update_scratch_);
  entry->write_in_flight = false;
  entry->header.ack_count = 0;
  if (!entry->superseded) {
    CCKVS_DCHECK(entry->ts() == entry->pending_ts);
    entry->value = entry->pending_value;
    entry->value_ts = entry->pending_ts;
    entry->set_state(CacheState::kValid);
    entry->dirty = true;
  } else {
    ++stats_.writes_superseded;
    if (entry->has_shadow && entry->shadow_ts == entry->ts()) {
      // The superseding writer's update already arrived; install it.
      entry->value = entry->shadow_value;
      entry->value_ts = entry->shadow_ts;
      entry->set_state(CacheState::kValid);
      entry->dirty = true;
      entry->has_shadow = false;
    } else {
      entry->set_state(CacheState::kInvalid);  // its update is still in flight
    }
  }
  ++stats_.writes_completed;
  auto done_it = pending_done_.find(key);
  CCKVS_CHECK(done_it != pending_done_.end());
  WriteDone done = std::move(done_it->second);
  pending_done_.erase(done_it);
  if (done != nullptr) {
    done();
  }
  if (entry->state() == CacheState::kValid) {
    WakeReaders(key);
  }
  StartQueuedWrites(key);  // next queued local write, if any
}

CoherenceEngine::ReadResult LinEngine::Read(Key key, Value* value, Timestamp* ts,
                                            ReadDone done) {
  CacheEntry* entry = cache_->Find(key);
  CCKVS_CHECK(entry != nullptr);
  if (entry->state() == CacheState::kValid) {
    ReadHit(*entry, value, ts);
    return ReadResult::kHit;
  }
  // "A read request under Lin may hit in the cache but it may not succeed, if
  // the key-value pair is in Invalid state" (§6.2) — it waits for the update.
  ParkReader(key, std::move(done));
  return ReadResult::kBlocked;
}

void LinEngine::OnInvalidate(NodeId from, const InvalidateMsg& msg) {
  CacheEntry* entry = cache_->Find(msg.key);
  // Invalidations are acknowledged unconditionally — even when stale or for a
  // key that just left the hot set — otherwise the writer deadlocks.
  sink_->SendAck(from, AckMsg{msg.key, msg.ts});
  if (entry == nullptr) {
    return;
  }
  if (msg.ts > entry->ts()) {
    ++stats_.invalidations_applied;
    entry->set_ts(msg.ts);
    if (entry->state() == CacheState::kWrite) {
      // A concurrent writer with a higher timestamp wins; our in-flight write
      // keeps collecting acks but will yield to the newer write on completion.
      entry->superseded = true;
    } else {
      const bool was_filling = entry->state() == CacheState::kFilling;
      entry->set_state(CacheState::kInvalid);
      if (was_filling) {
        // The entry left kFilling without a fill: its clock is live now, so
        // writes queued behind the fill may start (bumping past msg.ts).
        StartQueuedWrites(msg.key);
      }
    }
  } else {
    ++stats_.invalidations_stale;
  }
}

void LinEngine::OnAck(NodeId from, const AckMsg& msg) {
  (void)from;
  CacheEntry* entry = cache_->Find(msg.key);
  if (entry == nullptr || !entry->write_in_flight || msg.ts != entry->pending_ts) {
    // Ack for a write that is no longer pending (e.g. the key churned out of
    // the hot set mid-write).  Safe to drop.
    return;
  }
  ++stats_.acks_received;
  ++entry->header.ack_count;
  if (entry->header.ack_count == static_cast<std::uint8_t>(num_nodes_ - 1)) {
    CompleteWrite(msg.key, entry);
  }
}

void LinEngine::OnUpdate(NodeId from, const UpdateMsg& msg) {
  (void)from;
  CacheEntry* entry = cache_->Find(msg.key);
  if (entry == nullptr) {
    return;
  }
  if (entry->state() == CacheState::kWrite) {
    // Our own write is mid-flight.  Buffer newer values; install on completion.
    if (msg.ts > entry->ts()) {
      // The update overtook its invalidation (UD gives no ordering).
      entry->set_ts(msg.ts);
      entry->superseded = true;
      entry->shadow_ts = msg.ts;
      entry->shadow_value = msg.value;
      entry->has_shadow = true;
      ++stats_.updates_applied;
    } else if (entry->superseded && msg.ts == entry->ts()) {
      // The update matching the invalidation that superseded us.
      entry->shadow_ts = msg.ts;
      entry->shadow_value = msg.value;
      entry->has_shadow = true;
      ++stats_.updates_applied;
    } else {
      ++stats_.updates_discarded;
    }
    return;
  }
  if ((entry->state() == CacheState::kInvalid && msg.ts == entry->ts()) ||
      msg.ts > entry->ts()) {
    // Either the update we were invalidated for, or a newer one that overtook
    // its invalidation; both install directly.
    entry->value = msg.value;
    entry->value_ts = msg.ts;
    entry->set_ts(msg.ts);
    entry->set_state(CacheState::kValid);
    entry->dirty = true;
    ++stats_.updates_applied;
    WakeReaders(msg.key);
    StartQueuedWrites(msg.key);  // the entry may have been kFilling until now
  } else {
    ++stats_.updates_discarded;
  }
}

}  // namespace cckvs
