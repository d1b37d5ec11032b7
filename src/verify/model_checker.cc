#include "src/verify/model_checker.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/cache/symmetric_cache.h"
#include "src/common/check.h"
#include "src/protocol/engine.h"
#include "src/store/partition.h"
#include "src/topk/hot_set_host.h"
#include "src/topk/hot_set_manager.h"

namespace cckvs {
namespace {

constexpr Key kKey = 0xcafe;
const char kInitValue[] = "init";

// An in-flight protocol message.  The fabric is modelled as a multiset: UD
// provides no ordering, so any in-flight message may be delivered next.
struct Msg {
  enum class Type : std::uint8_t { kInv = 0, kAck = 1, kUpd = 2 };
  Type type;
  NodeId from;
  NodeId to;
  Timestamp ts;
  std::string value;  // updates only

  // Canonical order, so action enumeration is deterministic across replays.
  friend bool operator<(const Msg& a, const Msg& b) {
    return std::tie(a.type, a.from, a.to, a.ts, a.value) <
           std::tie(b.type, b.from, b.to, b.ts, b.value);
  }
  friend bool operator==(const Msg&, const Msg&) = default;
};

struct Action {
  enum class Kind : std::uint8_t { kStartWrite, kDeliver };
  Kind kind;
  int arg;  // node id for kStartWrite; in-flight index for kDeliver
};

// The complete protocol world: N real engines over N real caches, plus the
// in-flight message multiset and verification bookkeeping.
class World {
 public:
  using ActionType = Action;

  explicit World(const ModelCheckerConfig& config)
      : config_(config), writes_remaining_(config.total_writes) {
    for (int i = 0; i < config.num_nodes; ++i) {
      caches_.push_back(std::make_unique<SymmetricCache>(1));
      caches_.back()->InstallHotSet({kKey});
      caches_.back()->Fill(kKey, kInitValue, Timestamp{0, 0});
      sinks_.push_back(std::make_unique<Sink>(this, static_cast<NodeId>(i)));
      engines_.push_back(std::make_unique<LinEngine>(
          static_cast<NodeId>(i), config.num_nodes, caches_.back().get(),
          sinks_.back().get()));
      writes_issued_by_.push_back(0);
    }
    value_of_ts_[Timestamp{0, 0}] = kInitValue;
  }

  // --- Action enumeration (deterministic) ---
  std::vector<Action> EnabledActions() const {
    std::vector<Action> actions;
    if (writes_remaining_ > 0) {
      for (int i = 0; i < config_.num_nodes; ++i) {
        const CacheEntry* entry = caches_[static_cast<std::size_t>(i)]->Find(kKey);
        if (!entry->write_in_flight) {
          actions.push_back(Action{Action::Kind::kStartWrite, i});
        }
      }
    }
    for (int m = 0; m < static_cast<int>(in_flight_.size()); ++m) {
      actions.push_back(Action{Action::Kind::kDeliver, m});
    }
    return actions;
  }

  // Applies one action; returns false (setting failure_) on invariant breach.
  bool Apply(const Action& action) {
    std::vector<Timestamp> before = SnapshotTimestamps();
    if (action.kind == Action::Kind::kStartWrite) {
      if (!StartWrite(static_cast<NodeId>(action.arg))) {
        return false;
      }
    } else {
      CCKVS_CHECK_LT(static_cast<std::size_t>(action.arg), in_flight_.size());
      const Msg msg = in_flight_[static_cast<std::size_t>(action.arg)];
      in_flight_.erase(in_flight_.begin() + action.arg);
      Deliver(msg);
    }
    // I2: per-node timestamp monotonicity across every transition.
    std::vector<Timestamp> after = SnapshotTimestamps();
    for (int i = 0; i < config_.num_nodes; ++i) {
      if (after[static_cast<std::size_t>(i)] < before[static_cast<std::size_t>(i)]) {
        failure_ = Format("I2 violation: node ", i, " timestamp regressed");
        return false;
      }
    }
    return CheckDataValueInvariant();
  }

  // I1: Valid (and Invalid) entries carry timestamps of known writes; Valid
  // entries hold exactly that write's value.
  bool CheckDataValueInvariant() {
    for (int i = 0; i < config_.num_nodes; ++i) {
      const CacheEntry* entry = caches_[static_cast<std::size_t>(i)]->Find(kKey);
      auto it = value_of_ts_.find(entry->ts());
      if (it == value_of_ts_.end()) {
        failure_ = Format("I1 violation: node ", i, " holds unknown timestamp");
        return false;
      }
      if (entry->state() == CacheState::kValid && entry->value != it->second) {
        failure_ = Format("I1 violation: node ", i,
                          " Valid value does not match its timestamp's write");
        return false;
      }
    }
    return true;
  }

  // I5: terminal states must be fully converged.
  bool CheckTerminal() {
    if (!in_flight_.empty()) {
      failure_ = "I4 violation: messages in flight but no enabled action";
      return false;
    }
    if (completed_writes_ != total_started_) {
      failure_ = "I4 violation (deadlock): started writes never completed";
      return false;
    }
    Timestamp max_ts{0, 0};
    for (const auto& [ts, value] : value_of_ts_) {
      max_ts = std::max(max_ts, ts);
    }
    for (int i = 0; i < config_.num_nodes; ++i) {
      const CacheEntry* entry = caches_[static_cast<std::size_t>(i)]->Find(kKey);
      if (entry->state() != CacheState::kValid) {
        failure_ = Format("I5 violation: node ", i, " not Valid at quiescence");
        return false;
      }
      if (entry->ts() != max_ts || entry->value != value_of_ts_[max_ts]) {
        failure_ = Format("I5 violation: node ", i, " did not converge to max write");
        return false;
      }
      if (!engines_[static_cast<std::size_t>(i)]->Quiescent()) {
        failure_ = Format("I5 violation: node ", i, " engine not quiescent");
        return false;
      }
    }
    return true;
  }

  // Canonical state encoding for the visited set.
  std::string Encode() const {
    std::ostringstream os;
    for (int i = 0; i < config_.num_nodes; ++i) {
      const CacheEntry* e = caches_[static_cast<std::size_t>(i)]->Find(kKey);
      os << 'N' << e->header.version << ',' << static_cast<int>(e->header.last_writer)
         << ',' << static_cast<int>(e->header.state) << ','
         << static_cast<int>(e->header.ack_count) << ',' << e->write_in_flight << ','
         << e->superseded << ',' << e->has_shadow << ',' << e->value << ','
         << e->pending_ts << ',' << e->pending_value << ',' << e->shadow_ts << ','
         << e->shadow_value << ';' << writes_issued_by_[static_cast<std::size_t>(i)]
         << ';';
    }
    os << 'B' << writes_remaining_ << ';' << max_completed_ << ';';
    std::vector<Msg> sorted = in_flight_;
    std::sort(sorted.begin(), sorted.end());
    for (const Msg& m : sorted) {
      os << 'M' << static_cast<int>(m.type) << ',' << static_cast<int>(m.from) << ','
         << static_cast<int>(m.to) << ',' << m.ts << ',' << m.value << ';';
    }
    return os.str();
  }

  const std::string& failure() const { return failure_; }
  std::size_t in_flight_count() const { return in_flight_.size(); }

 private:
  class Sink final : public MessageSink {
   public:
    Sink(World* world, NodeId self) : world_(world), self_(self) {}
    void BroadcastUpdate(const UpdateMsg& msg) override {
      for (int j = 0; j < world_->config_.num_nodes; ++j) {
        if (j != self_) {
          world_->in_flight_.push_back(Msg{Msg::Type::kUpd, self_,
                                           static_cast<NodeId>(j), msg.ts, msg.value});
        }
      }
    }
    void BroadcastInvalidate(const InvalidateMsg& msg) override {
      for (int j = 0; j < world_->config_.num_nodes; ++j) {
        if (j != self_) {
          world_->in_flight_.push_back(
              Msg{Msg::Type::kInv, self_, static_cast<NodeId>(j), msg.ts, {}});
        }
      }
    }
    void SendAck(NodeId to, const AckMsg& msg) override {
      world_->in_flight_.push_back(Msg{Msg::Type::kAck, self_, to, msg.ts, {}});
    }

   private:
    World* world_;
    NodeId self_;
  };

  template <typename... Args>
  static std::string Format(Args&&... args) {
    std::ostringstream os;
    (os << ... << args);
    return os.str();
  }

  std::vector<Timestamp> SnapshotTimestamps() const {
    std::vector<Timestamp> ts;
    for (int i = 0; i < config_.num_nodes; ++i) {
      ts.push_back(caches_[static_cast<std::size_t>(i)]->Find(kKey)->ts());
    }
    return ts;
  }

  bool StartWrite(NodeId node) {
    CCKVS_CHECK_GT(writes_remaining_, 0);
    --writes_remaining_;
    ++total_started_;
    const int idx = writes_issued_by_[node]++;
    const std::string value =
        Format("w", static_cast<int>(node), ":", idx);
    CacheEntry* entry = caches_[node]->Find(kKey);
    engines_[node]->Write(kKey, value, [this, node]() {
      // I3 bookkeeping.
      const Timestamp ts = engines_[node]->CompletedWriteTs(kKey);
      max_completed_ = std::max(max_completed_, ts);
      ++completed_writes_;
    });
    const Timestamp assigned = entry->pending_ts;
    // I3: real-time ordering — a write issued now must be timestamped above
    // every already-completed write.
    if (!(assigned > max_completed_)) {
      failure_ = Format("I3 violation: node ", static_cast<int>(node),
                        " issued ts not above a completed write's ts");
      return false;
    }
    if (assigned.clock > static_cast<std::uint32_t>(config_.max_clock)) {
      failure_ = "timestamp bound exceeded";
      return false;
    }
    CCKVS_CHECK(value_of_ts_.emplace(assigned, value).second);
    return true;
  }

  void Deliver(const Msg& msg) {
    CoherenceEngine& engine = *engines_[msg.to];
    switch (msg.type) {
      case Msg::Type::kInv:
        engine.OnInvalidate(msg.from, InvalidateMsg{kKey, msg.ts});
        break;
      case Msg::Type::kAck:
        engine.OnAck(msg.from, AckMsg{kKey, msg.ts});
        break;
      case Msg::Type::kUpd:
        engine.OnUpdate(msg.from, UpdateMsg{kKey, msg.value, msg.ts});
        break;
    }
  }

  struct TimestampHash {
    std::size_t operator()(const Timestamp& t) const {
      return (static_cast<std::size_t>(t.clock) << 8) | t.writer;
    }
  };

  ModelCheckerConfig config_;
  std::vector<std::unique_ptr<SymmetricCache>> caches_;
  std::vector<std::unique_ptr<Sink>> sinks_;
  std::vector<std::unique_ptr<LinEngine>> engines_;
  std::vector<Msg> in_flight_;
  std::vector<int> writes_issued_by_;
  int writes_remaining_ = 0;
  int total_started_ = 0;
  int completed_writes_ = 0;
  Timestamp max_completed_{0, 0};
  std::unordered_map<Timestamp, std::string, TimestampHash> value_of_ts_;
  std::string failure_;
};

// ===========================================================================
// Epoch-transition scope (§4 machinery under the §5.2 method)
// ===========================================================================

// Two keys: kKeyOut is hot in epoch 0 and evicted by the scope's announce;
// kKeyIn is admitted.  home_of(key) = key % num_nodes, so kKeyOut homes at
// node 0 and kKeyIn at node 1.
constexpr Key kKeyOut = 0;
constexpr Key kKeyIn = 1;
const char kTransitionInit[] = "init";

// One message on a per-(src,dst) FIFO lane.  Both production transports are
// FIFO per peer pair across every class (the live channel by construction,
// the simulated fabric because all classes share the same four stations), and
// the install barrier depends on exactly that; lanes interleave freely.
struct TMsg {
  enum class Type : std::uint8_t { kInv = 0, kAck, kUpd, kFill, kInstalled };
  Type type;
  Key key = 0;
  Timestamp ts{};
  std::string value;        // updates and fills
  std::uint64_t epoch = 0;  // fills and install confirmations
};

struct TAction {
  enum class Kind : std::uint8_t { kAnnounce, kDeliver, kStart, kRetry };
  Kind kind;
  int a = 0;  // node (kAnnounce), src (kDeliver), op index (kStart/kRetry)
  int b = 0;  // dst (kDeliver)
};

// N real engines + caches + shards + hot-set managers, the managers driven
// through the same HotSetHost hooks both production hosts implement.  Client
// ops route exactly as the hosts route them: own-cache hit through the
// engine, otherwise a direct access to the home shard through the residency
// gate, parking while the gate is up.
class TransitionWorld {
 public:
  using ActionType = TAction;

  explicit TransitionWorld(const TransitionScopeConfig& config)
      : config_(config),
        announce_{1, {kKeyIn}},
        lanes_(static_cast<std::size_t>(config.num_nodes) *
               static_cast<std::size_t>(config.num_nodes)) {
    CCKVS_CHECK_GE(config.num_nodes, 2);
    CCKVS_CHECK_LE(config.puts, 4);
    CCKVS_CHECK_LE(config.gets, 4);
    const int n = config.num_nodes;
    for (int i = 0; i < n; ++i) {
      PartitionConfig pc;
      pc.buckets = 16;
      pc.node_id = static_cast<NodeId>(i);
      pc.synthesize = [](Key) { return Value(kTransitionInit); };
      partitions_.push_back(std::make_unique<Partition>(pc));
      caches_.push_back(std::make_unique<SymmetricCache>(2));
      caches_.back()->InstallHotSet({kKeyOut});
      caches_.back()->Fill(kKeyOut, kTransitionInit, Timestamp{0, 0});
      hosts_.push_back(std::make_unique<NodeHost>(this, static_cast<NodeId>(i)));
      if (config.model == ConsistencyModel::kLin) {
        engines_.push_back(std::make_unique<LinEngine>(
            static_cast<NodeId>(i), n, caches_.back().get(), hosts_.back().get()));
      } else {
        CCKVS_CHECK(config.model == ConsistencyModel::kSc);
        engines_.push_back(std::make_unique<ScEngine>(
            static_cast<NodeId>(i), n, caches_.back().get(), hosts_.back().get()));
      }
    }
    for (int i = 0; i < n; ++i) {
      HotSetManagerConfig hc;
      hc.self = static_cast<NodeId>(i);
      hc.num_nodes = n;
      hc.coordinator = false;  // the scope injects the announce itself
      hc.home_of = [n](Key key) {
        return static_cast<NodeId>(key % static_cast<std::uint64_t>(n));
      };
      managers_.push_back(std::make_unique<HotSetManager>(
          hc, caches_[static_cast<std::size_t>(i)].get(),
          engines_[static_cast<std::size_t>(i)].get(),
          hosts_[static_cast<std::size_t>(i)].get()));
    }
    // Epoch-0 steady state: the hot key's shard gate is up at its home,
    // exactly as both hosts bracket a prefilled hot set.
    partitions_[HomeOf(kKeyOut)]->MarkCacheResident(kKeyOut);
    announce_pending_.assign(static_cast<std::size_t>(n), true);
    value_of_[{kKeyOut, Timestamp{0, 0}}] = kTransitionInit;
    value_of_[{kKeyIn, Timestamp{0, 0}}] = kTransitionInit;

    // Client op templates, spread across nodes and both keys.  Which path an
    // op takes (cache, shard, or parked-on-the-gate) depends on when the
    // exploration starts it relative to the transition — that is the point.
    for (int t = 0; t < config.puts; ++t) {
      OpRec op;
      op.is_put = true;
      op.key = t % 2 == 0 ? kKeyOut : kKeyIn;
      op.node = static_cast<NodeId>((n - 1 + t) % n);
      op.value = Format("p", t, "@n", static_cast<int>(op.node));
      ops_.push_back(std::move(op));
    }
    for (int t = 0; t < config.gets; ++t) {
      OpRec op;
      op.is_put = false;
      op.key = t % 2 == 0 ? kKeyOut : kKeyIn;
      op.node = static_cast<NodeId>((n - 1 + t) % n);
      ops_.push_back(std::move(op));
    }
  }

  std::vector<TAction> EnabledActions() const {
    std::vector<TAction> actions;
    for (int i = 0; i < config_.num_nodes; ++i) {
      if (announce_pending_[static_cast<std::size_t>(i)]) {
        actions.push_back(TAction{TAction::Kind::kAnnounce, i, 0});
      }
    }
    for (int src = 0; src < config_.num_nodes; ++src) {
      for (int dst = 0; dst < config_.num_nodes; ++dst) {
        if (src != dst && !Lane(src, dst).empty()) {
          actions.push_back(TAction{TAction::Kind::kDeliver, src, dst});
        }
      }
    }
    for (int idx = 0; idx < static_cast<int>(ops_.size()); ++idx) {
      const OpRec& op = ops_[static_cast<std::size_t>(idx)];
      if (op.st == OpRec::St::kReady) {
        actions.push_back(TAction{TAction::Kind::kStart, idx, 0});
      } else if (op.st == OpRec::St::kParked && RetryEnabled(op)) {
        actions.push_back(TAction{TAction::Kind::kRetry, idx, 0});
      }
    }
    return actions;
  }

  bool Apply(const TAction& action) {
    const std::vector<Timestamp> before = SnapshotCacheTimestamps();
    switch (action.kind) {
      case TAction::Kind::kAnnounce:
        announce_pending_[static_cast<std::size_t>(action.a)] = false;
        managers_[static_cast<std::size_t>(action.a)]->DriveAnnounce(announce_);
        break;
      case TAction::Kind::kDeliver: {
        auto& lane = Lane(action.a, action.b);
        CCKVS_CHECK(!lane.empty());
        const TMsg msg = lane.front();
        lane.pop_front();
        Deliver(static_cast<NodeId>(action.a), static_cast<NodeId>(action.b), msg);
        break;
      }
      case TAction::Kind::kStart:
      case TAction::Kind::kRetry:
        RouteOp(action.a);
        break;
    }
    if (!failure_.empty()) {
      return false;
    }
    return CheckInvariants(before);
  }

  bool CheckTerminal() {
    for (const auto& lane : lanes_) {
      if (!lane.empty()) {
        failure_ = "deadlock: messages in flight but no enabled action";
        return false;
      }
    }
    for (std::size_t idx = 0; idx < ops_.size(); ++idx) {
      if (ops_[idx].st != OpRec::St::kDone) {
        failure_ = Format("deadlock: op ", idx, " never completed (",
                          ops_[idx].st == OpRec::St::kParked
                              ? "parked on a gate that never lifted"
                              : "blocked in the protocol",
                          ")");
        return false;
      }
    }
    const Timestamp want_in = MaxWriteTs(kKeyIn);
    for (int i = 0; i < config_.num_nodes; ++i) {
      const auto n = static_cast<std::size_t>(i);
      if (!engines_[n]->Quiescent()) {
        failure_ = Format("node ", i, " engine not quiescent at termination");
        return false;
      }
      if (managers_[n]->HasDeferred()) {
        failure_ = Format("node ", i, " still holds deferred evictions");
        return false;
      }
      if (managers_[n]->installed_epoch() != announce_.epoch) {
        failure_ = Format("node ", i, " never installed the epoch");
        return false;
      }
      if (managers_[n]->ShardGated(kKeyOut) || managers_[n]->ShardGated(kKeyIn)) {
        failure_ = Format("node ", i, " barrier never settled (gate still pending)");
        return false;
      }
      if (caches_[n]->Find(kKeyOut) != nullptr) {
        failure_ = Format("node ", i, " still caches the evicted key");
        return false;
      }
      const CacheEntry* e = caches_[n]->Find(kKeyIn);
      if (e == nullptr || e->state() != CacheState::kValid) {
        failure_ = Format("node ", i, " admitted key not Valid at quiescence");
        return false;
      }
      if (e->ts() != want_in || e->value != value_of_[{kKeyIn, want_in}]) {
        failure_ = Format("node ", i, " did not converge to the admitted key's ",
                          "maximal write");
        return false;
      }
    }
    // The evicted key's shard is authoritative again: gate down, value = the
    // maximal write any era produced.
    {
      Value v;
      Timestamp ts;
      bool resident = false;
      CCKVS_CHECK(partitions_[HomeOf(kKeyOut)]->Get(kKeyOut, &v, &ts, &resident));
      if (resident) {
        failure_ = "evicted key's residency gate still up at quiescence";
        return false;
      }
      const Timestamp want_out = MaxWriteTs(kKeyOut);
      if (ts != want_out || v != value_of_[{kKeyOut, want_out}]) {
        failure_ = "evicted key's shard did not converge to its maximal write";
        return false;
      }
    }
    // The admitted key's cached era is active: its shard gate must be up.
    {
      Value v;
      Timestamp ts;
      bool resident = false;
      CCKVS_CHECK(partitions_[HomeOf(kKeyIn)]->Get(kKeyIn, &v, &ts, &resident));
      if (!resident) {
        failure_ = "admitted key's residency gate not raised at quiescence";
        return false;
      }
    }
    return true;
  }

  std::string Encode() const {
    std::ostringstream os;
    for (int i = 0; i < config_.num_nodes; ++i) {
      const auto n = static_cast<std::size_t>(i);
      os << 'N' << i << ':';
      for (const Key key : {kKeyOut, kKeyIn}) {
        const CacheEntry* e = caches_[n]->Find(key);
        if (e == nullptr) {
          os << "-;";
          continue;
        }
        os << e->header.version << ',' << static_cast<int>(e->header.last_writer)
           << ',' << static_cast<int>(e->header.state) << ','
           << static_cast<int>(e->header.ack_count) << ',' << e->write_in_flight
           << ',' << e->superseded << ',' << e->has_shadow << ',' << e->value << ','
           << e->value_ts << ',' << e->pending_ts << ',' << e->pending_value << ','
           << e->shadow_ts << ',' << e->shadow_value << ';';
      }
      os << 'M' << managers_[n]->target_epoch() << ','
         << managers_[n]->deferred_evictions() << ','
         << managers_[n]->ShardGated(kKeyOut) << ','
         << managers_[n]->ShardGated(kKeyIn) << ',';
      for (int j = 0; j < config_.num_nodes; ++j) {
        os << managers_[n]->peer_installed_epoch(static_cast<NodeId>(j)) << '/';
      }
      for (const FillMsg& f : managers_[n]->StashedFills()) {
        os << 'S' << f.key << ',' << f.ts << ',' << f.value << ',' << f.epoch << ';';
      }
      for (const HotSetManager::AheadTraffic& a : managers_[n]->SeenAheadTraffic()) {
        os << 'T' << a.key << ',' << a.inv_ts << ',' << a.upd_ts << ','
           << a.upd_value << ';';
      }
      os << 'A' << announce_pending_[n] << ';';
    }
    for (const Key key : {kKeyOut, kKeyIn}) {
      Value v;
      Timestamp ts;
      bool resident = false;
      const Partition& home = *partitions_[HomeOf(key)];
      CCKVS_CHECK(home.Get(key, &v, &ts, &resident));
      os << 'P' << key << ':' << home.Contains(key) << ',' << v << ',' << ts << ','
         << resident << ';';
    }
    for (int src = 0; src < config_.num_nodes; ++src) {
      for (int dst = 0; dst < config_.num_nodes; ++dst) {
        if (src == dst) {
          continue;
        }
        os << 'L' << src << '>' << dst << ':';
        for (const TMsg& m : Lane(src, dst)) {
          os << static_cast<int>(m.type) << ',' << m.key << ',' << m.ts << ','
             << m.value << ',' << m.epoch << '|';
        }
        os << ';';
      }
    }
    for (const OpRec& op : ops_) {
      os << 'O' << static_cast<int>(op.st) << ',' << op.invoked << ','
         << op.ts_known << ',' << op.ts << ',' << op.watermark << ';';
    }
    return os.str();
  }

  const std::string& failure() const { return failure_; }

 private:
  struct OpRec {
    NodeId node = 0;
    Key key = 0;
    bool is_put = false;
    enum class St : std::uint8_t { kReady, kParked, kInFlight, kDone };
    St st = St::kReady;
    std::string value;      // puts: the unique value written
    Timestamp ts{};         // assigned (put) / observed (get)
    bool ts_known = false;
    bool invoked = false;
    Timestamp watermark{};  // per-key completed-op watermark at invocation
  };

  // Lanes + HotSetHost + MessageSink of one node.
  class NodeHost final : public MessageSink, public HotSetHost {
   public:
    NodeHost(TransitionWorld* world, NodeId self) : world_(world), self_(self) {}

    void BroadcastUpdate(const UpdateMsg& msg) override {
      world_->PushToPeers(self_,
                          TMsg{TMsg::Type::kUpd, msg.key, msg.ts, msg.value, 0});
    }
    void BroadcastInvalidate(const InvalidateMsg& msg) override {
      world_->PushToPeers(self_, TMsg{TMsg::Type::kInv, msg.key, msg.ts, {}, 0});
    }
    void SendAck(NodeId to, const AckMsg& msg) override {
      world_->Push(self_, to, TMsg{TMsg::Type::kAck, msg.key, msg.ts, {}, 0});
    }

    void ApplyWriteback(const SymmetricCache::Eviction& ev) override {
      world_->partitions_[self_]->Apply(ev.key, ev.value, ev.ts);
    }
    FillSnapshot GateAndSnapshot(Key key) override {
      const Partition::ResidentSnapshot snap =
          world_->partitions_[self_]->MarkCacheResident(key);
      return FillSnapshot{snap.value, snap.ts};
    }
    void PublishFills(const std::vector<FillMsg>& fills) override {
      for (const FillMsg& f : fills) {
        world_->PushToPeers(self_,
                            TMsg{TMsg::Type::kFill, f.key, f.ts, f.value, f.epoch});
      }
    }
    void PublishInstalled(const EpochInstalledMsg& msg) override {
      world_->PushToPeers(self_,
                          TMsg{TMsg::Type::kInstalled, 0, Timestamp{}, {}, msg.epoch});
    }
    void LiftGate(Key key) override {
      world_->partitions_[self_]->ClearCacheResident(key);
    }

   private:
    TransitionWorld* world_;
    NodeId self_;
  };
  friend class NodeHost;

  template <typename... Args>
  static std::string Format(Args&&... args) {
    std::ostringstream os;
    (os << ... << args);
    return os.str();
  }

  NodeId HomeOf(Key key) const {
    return static_cast<NodeId>(key %
                               static_cast<std::uint64_t>(config_.num_nodes));
  }

  std::deque<TMsg>& Lane(int src, int dst) {
    return lanes_[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(config_.num_nodes) +
                  static_cast<std::size_t>(dst)];
  }
  const std::deque<TMsg>& Lane(int src, int dst) const {
    return lanes_[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(config_.num_nodes) +
                  static_cast<std::size_t>(dst)];
  }

  void Push(NodeId src, NodeId dst, TMsg msg) {
    Lane(src, dst).push_back(std::move(msg));
  }
  void PushToPeers(NodeId src, const TMsg& msg) {
    for (int j = 0; j < config_.num_nodes; ++j) {
      if (j != src) {
        Push(src, static_cast<NodeId>(j), msg);
      }
    }
  }

  void Deliver(NodeId src, NodeId dst, const TMsg& msg) {
    const auto d = static_cast<std::size_t>(dst);
    switch (msg.type) {
      case TMsg::Type::kInv:
        DeliverInvalidate(src, InvalidateMsg{msg.key, msg.ts}, *caches_[d],
                          engines_[d].get(), managers_[d].get());
        break;
      case TMsg::Type::kAck:
        engines_[d]->OnAck(src, AckMsg{msg.key, msg.ts});
        break;
      case TMsg::Type::kUpd:
        // The rule both hosts run (hot_set_manager.h): the engine while the
        // key is cached, the home shard when homed here (a late write-back),
        // else the manager's pre-admission record.
        DeliverUpdate(src, UpdateMsg{msg.key, msg.value, msg.ts}, *caches_[d],
                      engines_[d].get(), managers_[d].get(), [&](Key key) {
                        return HomeOf(key) == dst ? partitions_[d].get() : nullptr;
                      });
        break;
      case TMsg::Type::kFill:
        managers_[d]->ApplyFill(FillMsg{msg.key, msg.value, msg.ts, msg.epoch});
        break;
      case TMsg::Type::kInstalled:
        managers_[d]->DrivePeerInstalled(src, msg.epoch);
        break;
    }
    // Hosts retry deferred evictions on every pump after protocol progress.
    managers_[d]->DriveDeferred();
  }

  // True when re-routing a parked shard op can make progress: the key entered
  // this node's cache, or the home shard's gate is down.  (The live run loop
  // retries unconditionally and re-parks; enabling only productive retries
  // keeps the state space free of self-loops without losing interleavings.)
  bool RetryEnabled(const OpRec& op) const {
    if (caches_[op.node]->Find(op.key) != nullptr) {
      return true;
    }
    Value v;
    Timestamp ts;
    bool resident = false;
    CCKVS_CHECK(partitions_[HomeOf(op.key)]->Get(op.key, &v, &ts, &resident));
    return !resident;
  }

  void RouteOp(int idx) {
    OpRec& op = ops_[static_cast<std::size_t>(idx)];
    if (!op.invoked) {
      op.invoked = true;
      op.watermark = MaxCompletedTs(op.key);
    }
    op.st = OpRec::St::kInFlight;
    const auto n = static_cast<std::size_t>(op.node);
    if (caches_[n]->Find(op.key) != nullptr) {
      if (op.is_put) {
        engines_[n]->Write(op.key, op.value, [this, idx] { CompletePut(idx); });
        SweepStartedPuts();  // capture the started write's timestamp
      } else {
        Value v;
        Timestamp ts;
        const auto result = engines_[n]->Read(
            op.key, &v, &ts, [this, idx](const Value& rv, Timestamp rt) {
              CompleteRead(idx, rv, rt);
            });
        if (result == CoherenceEngine::ReadResult::kHit) {
          CompleteRead(idx, v, ts);
        }
      }
      return;
    }
    // Direct shard access through the residency gate, as the hosts' miss
    // paths do.
    Partition& home = *partitions_[HomeOf(op.key)];
    if (op.is_put) {
      Timestamp ts;
      if (!home.TryPut(op.key, op.value, &ts)) {
        op.st = OpRec::St::kParked;
        return;
      }
      AssignPutTs(idx, ts);
      if (failure_.empty()) {
        CompletePut(idx);
      }
    } else {
      Value v;
      Timestamp ts;
      bool resident = false;
      CCKVS_CHECK(home.Get(op.key, &v, &ts, &resident));
      if (resident) {
        op.st = OpRec::St::kParked;
        return;
      }
      CompleteRead(idx, v, ts);
    }
  }

  void AssignPutTs(int idx, Timestamp ts) {
    OpRec& op = ops_[static_cast<std::size_t>(idx)];
    op.ts = ts;
    op.ts_known = true;
    if (ts.clock > static_cast<std::uint32_t>(config_.max_clock)) {
      failure_ = "timestamp bound exceeded";
      return;
    }
    if (!value_of_.emplace(std::make_pair(op.key, ts), op.value).second) {
      failure_ = Format("duplicate timestamp assigned to key ", op.key,
                        " (two writes share a Lamport timestamp)");
    }
  }

  void CompletePut(int idx) {
    OpRec& op = ops_[static_cast<std::size_t>(idx)];
    if (!op.ts_known) {
      const auto n = static_cast<std::size_t>(op.node);
      if (caches_[n]->Find(op.key) == nullptr) {
        failure_ = Format("op ", idx, " completed without a cache entry");
        return;
      }
      AssignPutTs(idx, engines_[n]->CompletedWriteTs(op.key));
      if (!failure_.empty()) {
        return;
      }
    }
    op.st = OpRec::St::kDone;
    if (config_.model == ConsistencyModel::kLin && !(op.ts > op.watermark)) {
      failure_ = Format("linearizability violation: put ", idx,
                        " serialized at/below the key's completed watermark");
      return;
    }
    NoteCompleted(op.key, op.ts);
  }

  void CompleteRead(int idx, const Value& v, Timestamp ts) {
    OpRec& op = ops_[static_cast<std::size_t>(idx)];
    op.st = OpRec::St::kDone;
    op.ts = ts;
    op.ts_known = true;
    const auto it = value_of_.find({op.key, ts});
    if (it == value_of_.end()) {
      failure_ = Format("read ", idx, " observed an unknown write");
      return;
    }
    if (it->second != v) {
      failure_ = Format("write atomicity violation: read ", idx,
                        " returned a value not matching its timestamp's write");
      return;
    }
    if (config_.model == ConsistencyModel::kLin && ts < op.watermark) {
      failure_ = Format("linearizability violation: read ", idx,
                        " observed below the key's completed watermark");
      return;
    }
    NoteCompleted(op.key, ts);
  }

  Timestamp MaxCompletedTs(Key key) const {
    auto it = max_completed_.find(key);
    return it == max_completed_.end() ? Timestamp{0, 0} : it->second;
  }
  void NoteCompleted(Key key, Timestamp ts) {
    Timestamp& cur = max_completed_[key];
    cur = std::max(cur, ts);
  }
  Timestamp MaxWriteTs(Key key) const {
    Timestamp best{0, 0};
    for (const auto& [key_ts, value] : value_of_) {
      if (key_ts.first == key) {
        best = std::max(best, key_ts.second);
      }
    }
    return best;
  }

  // Lin started writes pick up their timestamp when the engine actually
  // starts them (a queued write starts inside a fill/update/ack delivery).
  void SweepStartedPuts() {
    for (int idx = 0; idx < static_cast<int>(ops_.size()); ++idx) {
      OpRec& op = ops_[static_cast<std::size_t>(idx)];
      if (op.st != OpRec::St::kInFlight || !op.is_put || op.ts_known) {
        continue;
      }
      const CacheEntry* e = caches_[static_cast<std::size_t>(op.node)]->Find(op.key);
      if (e != nullptr && e->write_in_flight && e->pending_value == op.value) {
        AssignPutTs(idx, e->pending_ts);
        if (!failure_.empty()) {
          return;
        }
      }
    }
  }

  std::vector<Timestamp> SnapshotCacheTimestamps() const {
    std::vector<Timestamp> ts;
    for (int i = 0; i < config_.num_nodes; ++i) {
      for (const Key key : {kKeyOut, kKeyIn}) {
        const CacheEntry* e = caches_[static_cast<std::size_t>(i)]->Find(key);
        // Absent and kFilling entries are exempt (a re-admission restarts the
        // visible clock at the fill); sentinel max() marks them.
        ts.push_back(e == nullptr || e->state() == CacheState::kFilling
                         ? Timestamp{0xffffffffu, 0xff}
                         : e->ts());
      }
    }
    return ts;
  }

  bool CheckInvariants(const std::vector<Timestamp>& before) {
    SweepStartedPuts();
    if (!failure_.empty()) {
      return false;
    }
    const std::vector<Timestamp> after = SnapshotCacheTimestamps();
    const Timestamp sentinel{0xffffffffu, 0xff};
    for (std::size_t i = 0; i < after.size(); ++i) {
      if (before[i] != sentinel && after[i] != sentinel && after[i] < before[i]) {
        failure_ = "cache timestamp regressed across a transition";
        return false;
      }
    }
    for (int i = 0; i < config_.num_nodes; ++i) {
      for (const Key key : {kKeyOut, kKeyIn}) {
        const CacheEntry* e = caches_[static_cast<std::size_t>(i)]->Find(key);
        if (e == nullptr || e->state() == CacheState::kFilling) {
          continue;
        }
        if (value_of_.find({key, e->ts()}) == value_of_.end()) {
          failure_ = Format("node ", i, " cache holds an unknown timestamp");
          return false;
        }
        if (e->state() == CacheState::kValid &&
            e->value != value_of_[{key, e->value_ts}]) {
          failure_ = Format("data-value violation: node ", i,
                            " Valid value does not match its timestamp's write");
          return false;
        }
      }
    }
    for (const Key key : {kKeyOut, kKeyIn}) {
      Value v;
      Timestamp ts;
      CCKVS_CHECK(partitions_[HomeOf(key)]->Get(key, &v, &ts));
      const auto it = value_of_.find({key, ts});
      if (it == value_of_.end()) {
        failure_ = Format("shard of key ", key, " holds an unknown timestamp");
        return false;
      }
      if (v != it->second) {
        failure_ = Format("data-value violation: shard of key ", key,
                          " does not match its timestamp's write");
        return false;
      }
    }
    return true;
  }

  TransitionScopeConfig config_;
  HotSetAnnounceMsg announce_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  std::vector<std::unique_ptr<SymmetricCache>> caches_;
  std::vector<std::unique_ptr<NodeHost>> hosts_;
  std::vector<std::unique_ptr<CoherenceEngine>> engines_;
  std::vector<std::unique_ptr<HotSetManager>> managers_;
  std::vector<std::deque<TMsg>> lanes_;  // (src * n + dst) FIFO channels
  std::vector<bool> announce_pending_;
  std::vector<OpRec> ops_;
  std::map<std::pair<Key, Timestamp>, std::string> value_of_;
  std::map<Key, Timestamp> max_completed_;
  std::string failure_;
};

// BFS over canonical states; paths are replayed, so the production engines
// never need to be copyable.  Shared by both scopes: a world provides
// ActionType, EnabledActions, Apply, CheckTerminal, Encode and failure().
template <typename WorldT>
ModelCheckerResult ExhaustiveExplore(
    const std::function<std::unique_ptr<WorldT>()>& make_world) {
  using ActionT = typename WorldT::ActionType;
  ModelCheckerResult result;

  std::unordered_set<std::string> visited;
  std::deque<std::vector<ActionT>> frontier;

  {
    auto root = make_world();
    visited.insert(root->Encode());
    frontier.push_back({});
    result.states_explored = 1;
  }

  while (!frontier.empty()) {
    const std::vector<ActionT> path = std::move(frontier.front());
    frontier.pop_front();
    result.max_depth = std::max(result.max_depth,
                                static_cast<std::uint64_t>(path.size()));

    // Rebuild the state at `path` once to enumerate its actions.
    auto base = make_world();
    for (const ActionT& a : path) {
      if (!base->Apply(a)) {
        result.failure = base->failure();
        return result;
      }
    }
    const std::vector<ActionT> actions = base->EnabledActions();
    if (actions.empty()) {
      ++result.terminal_states;
      if (!base->CheckTerminal()) {
        result.failure = base->failure();
        return result;
      }
      continue;
    }

    for (const ActionT& action : actions) {
      ++result.transitions;
      auto world = make_world();
      bool ok = true;
      for (const ActionT& a : path) {
        if (!world->Apply(a)) {
          ok = false;
          break;
        }
      }
      if (ok && !world->Apply(action)) {
        ok = false;
      }
      if (!ok) {
        result.failure = world->failure();
        return result;
      }
      std::string encoded = world->Encode();
      if (visited.insert(std::move(encoded)).second) {
        ++result.states_explored;
        std::vector<ActionT> next = path;
        next.push_back(action);
        frontier.push_back(std::move(next));
      }
    }
  }

  result.ok = true;
  return result;
}

}  // namespace

ModelCheckerResult CheckLinProtocol(const ModelCheckerConfig& config) {
  return ExhaustiveExplore<World>(
      [&config]() { return std::make_unique<World>(config); });
}

ModelCheckerResult CheckEpochTransition(const TransitionScopeConfig& config) {
  return ExhaustiveExplore<TransitionWorld>(
      [&config]() { return std::make_unique<TransitionWorld>(config); });
}

}  // namespace cckvs
