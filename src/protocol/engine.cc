#include "src/protocol/engine.h"

#include <utility>

#include "src/common/check.h"

namespace cckvs {

namespace {

// Waiter nodes made up front: more than a live node's sessions (32 in the
// benchmark, at most 48 in the tests) can ever park or queue at once.
constexpr std::size_t kWarmWaiters = 64;

}  // namespace

void CoherenceEngine::PrewarmScratch(std::size_t value_bytes) {
  update_scratch_.value.reserve(value_bytes);
  warm_value_bytes_ = value_bytes;
  for (std::size_t i = 0; i < kWarmWaiters; ++i) {
    Waiter& w = waiter_nodes_.emplace_back();
    w.value.reserve(value_bytes);
    GiveWaiter(&w);
  }
}

void CoherenceEngine::OnFilled(Key key) {
  CacheEntry* entry = cache_->Find(key);
  CCKVS_CHECK(entry != nullptr);
  if (warm_value_bytes_ != 0 && model() == ConsistencyModel::kLin) {
    // SC entries stay cold: SC never writes pending/shadow values.
    entry->pending_value.reserve(warm_value_bytes_);
    entry->shadow_value.reserve(warm_value_bytes_);
  }
  WakeReaders(entry);
  StartQueuedWrites(key, entry);
}

CoherenceEngine::ReadResult CoherenceEngine::Read(Key key, Value* value, Timestamp* ts,
                                                  ReadDone done) {
  CacheEntry* entry = cache_->Find(key);
  CCKVS_CHECK(entry != nullptr);
  if (entry->state() == CacheState::kValid) {
    ReadHit(*entry, value, ts);
    return ReadResult::kHit;
  }
  // SC blocks only on kFilling.  Lin also blocks on Invalid and Write: "a read
  // request under Lin may hit in the cache but it may not succeed, if the
  // key-value pair is in Invalid state" (§6.2) — it waits for the update.
  CCKVS_DCHECK(model() == ConsistencyModel::kLin || entry->state() == CacheState::kFilling);
  ++stats_.reads_blocked;
  ++waiters_;
  Waiter* w = TakeWaiter();
  w->read = std::move(done);
  entry->parked_readers.PushBack(w);
  return ReadResult::kBlocked;
}

CoherenceEngine::WriteResult CoherenceEngine::Write(Key key, const Value& value,
                                                    WriteDone done) {
  CacheEntry* entry = cache_->Find(key);
  CCKVS_CHECK(entry != nullptr);
  ++stats_.writes;
  if (entry->write_in_flight || entry->state() == CacheState::kFilling) {
    // Lin: one in-flight write per key per node; later local writes queue
    // behind it (sessions on this node remain in session order).  Both: a
    // write over an unfilled entry would restart the key's Lamport clock at 1
    // and could reuse a timestamp from before the key left the hot set; it
    // waits for the fill, which carries the clock the shard reached.
    ++stats_.local_writes_queued;
    ++waiters_;
    Waiter* w = TakeWaiter();
    w->value = value;  // copy-assign reuses the node's string capacity
    w->write = std::move(done);
    entry->queued_writes.PushBack(w);
    return WriteResult::kPending;
  }
  return StartWrite(key, entry, value, std::move(done));
}

void CoherenceEngine::StartQueuedWrites(Key key, CacheEntry* entry) {
  // SC drains the queue here; a Lin write stays in flight, and its completion
  // starts the next one.
  while (!entry->write_in_flight && entry->state() != CacheState::kFilling &&
         !entry->queued_writes.empty()) {
    Waiter* next = entry->queued_writes.PopFront();
    --waiters_;
    StartWrite(key, entry, next->value, std::move(next->write));
    GiveWaiter(next);
  }
}

void CoherenceEngine::WakeReaders(CacheEntry* entry) {
  while (entry->state() == CacheState::kValid && !entry->parked_readers.empty()) {
    Waiter* w = entry->parked_readers.PopFront();
    ReadDone done = std::move(w->read);
    GiveWaiter(w);
    --waiters_;
    done(entry->value, entry->ts());
  }
}

// ---------------------------------------------------------------------------
// ScEngine
// ---------------------------------------------------------------------------

CoherenceEngine::WriteResult ScEngine::StartWrite(Key key, CacheEntry* entry,
                                                  const Value& value, WriteDone done) {
  // Burckhardt-style: bump the Lamport clock, apply locally, broadcast, return.
  // Writes are asynchronous and reads that follow observe the new value at once.
  const Timestamp ts{entry->header.version + 1, self_};
  entry->Install(value, ts);
  update_scratch_.key = key;
  update_scratch_.value = value;  // copy-assign reuses the scratch's capacity
  update_scratch_.ts = ts;
  sink_->BroadcastUpdate(update_scratch_);
  ++stats_.writes_completed;
  if (done != nullptr) {
    done();
  }
  WakeReaders(entry);
  return WriteResult::kCompleted;
}

void ScEngine::OnUpdate(NodeId, const UpdateMsg& msg) {
  CacheEntry* entry = cache_->Find(msg.key);
  if (entry == nullptr) {
    return;  // key left the hot set (epoch churn); nothing to keep consistent
  }
  // Apply iff newer: bigger Lamport clock, writer id as tie-breaker.
  if (msg.ts > entry->ts()) {
    entry->Install(msg.value, msg.ts);
    ++stats_.updates_applied;
    WakeReaders(entry);
    // A remote update can be what makes a kFilling entry readable (the fill
    // itself will then be discarded as stale): release queued writes too.
    StartQueuedWrites(msg.key, entry);
  } else {
    ++stats_.updates_discarded;
  }
}

void ScEngine::OnInvalidate(NodeId, const InvalidateMsg&) {
  CCKVS_CHECK(false && "SC protocol has no invalidations");
}

void ScEngine::OnAck(NodeId, const AckMsg&) {
  CCKVS_CHECK(false && "SC protocol has no acks");
}

// ---------------------------------------------------------------------------
// LinEngine
// ---------------------------------------------------------------------------

CoherenceEngine::WriteResult LinEngine::StartWrite(Key key, CacheEntry* entry,
                                                   const Value& value, WriteDone done) {
  // Transition to the transient Write state and broadcast invalidations carrying
  // the new timestamp (Figure 7, phase 1).
  const Timestamp ts{entry->header.version + 1, self_};
  entry->set_ts(ts);
  entry->set_state(CacheState::kWrite);
  entry->write_in_flight = true;
  entry->pending_ts = ts;
  entry->pending_value = value;
  entry->write_done = std::move(done);
  ++waiters_;
  entry->superseded = false;
  entry->has_shadow = false;
  entry->header.ack_count = 0;
  sink_->BroadcastInvalidate(InvalidateMsg{key, ts});
  if (num_nodes_ == 1) {
    CompleteWrite(key, entry);  // no sharers to invalidate
  }
  return WriteResult::kPending;
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
    entry->Install(entry->pending_value, entry->pending_ts);
  } else {
    ++stats_.writes_superseded;
    if (entry->has_shadow && entry->shadow_ts == entry->ts()) {
      // The superseding writer's update already arrived; install it.
      entry->Install(entry->shadow_value, entry->shadow_ts);
      entry->has_shadow = false;
    } else {
      entry->set_state(CacheState::kInvalid);  // its update is still in flight
    }
  }
  ++stats_.writes_completed;
  WriteDone done = std::exchange(entry->write_done, nullptr);
  --waiters_;
  if (done != nullptr) {
    done();
  }
  WakeReaders(entry);
  StartQueuedWrites(key, entry);  // next queued local write, if any
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
        StartQueuedWrites(msg.key, entry);
      }
    }
  } else {
    ++stats_.invalidations_stale;
  }
}

void LinEngine::OnAck(NodeId, const AckMsg& msg) {
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

void LinEngine::OnUpdate(NodeId, const UpdateMsg& msg) {
  CacheEntry* entry = cache_->Find(msg.key);
  if (entry == nullptr) {
    return;
  }
  if (entry->state() == CacheState::kWrite) {
    // Our own write is mid-flight.  Buffer newer values; install on completion.
    // A newer update overtook its invalidation (UD gives no ordering); an
    // equal one matches the invalidation that superseded us.
    if (msg.ts > entry->ts() || (entry->superseded && msg.ts == entry->ts())) {
      entry->set_ts(msg.ts);
      entry->superseded = true;
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
    entry->Install(msg.value, msg.ts);
    ++stats_.updates_applied;
    WakeReaders(entry);
    StartQueuedWrites(msg.key, entry);  // the entry may have been kFilling until now
  } else {
    ++stats_.updates_discarded;
  }
}

}  // namespace cckvs
