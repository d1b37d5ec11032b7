#include "src/cckvs/rack.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <utility>

#include "src/cckvs/report_util.h"
#include "src/cckvs/rpc_messages.h"
#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/protocol/messages.h"
#include "src/rdma/flow_control.h"
#include "src/rdma/verbs.h"
#include "src/runtime/wire_codec.h"

namespace cckvs {
namespace {

// QP numbers (§6.4: separate QPs for remote requests, consistency messages and
// credit updates).  Under EREW there is one RPC QP per KVS thread.
constexpr std::uint16_t kQpRpcBase = 0;
constexpr std::uint16_t kQpConsistency = 100;
constexpr std::uint16_t kQpCredit = 101;
constexpr std::uint16_t kQpControl = 102;

constexpr SimTime kClientParseNs = 20;  // request ingest before any probe

// Per-message framing bytes inside a coalesced packet (counted as header).
constexpr std::uint32_t kCoalesceFramingBytes = 2;

// Every datagram body is one WireBatch frame (runtime/wire_codec.h), the
// encoding the live rack's cross-process backends put on their wires.
std::shared_ptr<const Buffer> Frame(const WireBatch& batch) {
  auto body = std::make_shared<Buffer>();
  SerializeWireBatch(batch, body.get());
  return body;
}

template <typename Msg>
std::shared_ptr<const Buffer> Frame(NodeId src, const Msg& msg) {
  WireBatch batch;
  batch.src = src;
  batch.Append(msg);
  return Frame(batch);
}

// Every frame comes from a RackNode, so one that does not decode is a bug.
WireBatch Unframe(const Datagram& dg) {
  WireBatch batch;
  CCKVS_CHECK(TryDeserializeWireBatch(*dg.body, &batch));
  CCKVS_CHECK(!batch.empty());
  return batch;
}

}  // namespace

// ===========================================================================
// RackNode
// ===========================================================================

class RackNode final : public MessageSink, public HotSetHost {
 public:
  RackNode(RackSimulation* rack, NodeId id);

  void Start();
  void PrefillHotSet(const std::vector<Key>& hot_keys);

  // Stops issuing new client operations; in-flight ones run to completion.
  void StartDraining() { draining_ = true; }

  // --- MessageSink (called by the consistency engine) ---
  void BroadcastUpdate(const UpdateMsg& msg) override;
  void BroadcastInvalidate(const InvalidateMsg& msg) override;
  void SendAck(NodeId to, const AckMsg& msg) override;

  // --- HotSetHost (called by the shared transition machine in topk/) ---
  void ApplyWriteback(const SymmetricCache::Eviction& ev) override;
  FillSnapshot GateAndSnapshot(Key key) override;
  void PublishFills(const std::vector<FillMsg>& fills) override;
  void PublishInstalled(const EpochInstalledMsg& msg) override;
  void LiftGate(Key key) override;

  // --- Epoch machinery (delegates membership to the HotSetManager) ---
  void AnnounceHotSet(const HotSetAnnounceMsg& msg);  // coordinator only
  void ApplyAnnounce(const HotSetAnnounceMsg& msg);
  void MaybeRetryDeferred();
  // Posts `body` to every peer on the control QP; returns the send CPU cost.
  SimTime BroadcastControl(std::shared_ptr<const Buffer> body, TrafficClass cls,
                           std::uint32_t payload_bytes);
  // Broadcasts one kControl message, which puts its encoded body (the frame
  // less its batch header) on the wire.
  template <typename Msg>
  SimTime BroadcastControlMsg(const Msg& msg) {
    std::shared_ptr<const Buffer> body = Frame(id_, msg);
    const auto payload = static_cast<std::uint32_t>(body->size() - kWireBatchHeaderBytes);
    return BroadcastControl(std::move(body), TrafficClass::kControl, payload);
  }

  // --- Introspection ---
  const SymmetricCache* cache() const { return cache_.get(); }
  const CoherenceEngine* engine() const { return engine_.get(); }
  const HotSetManager* hot_set_manager() const { return hot_mgr_.get(); }
  const Partition* partition(int kvs_thread) const {
    return partitions_[static_cast<std::size_t>(
                           kvs_thread % static_cast<int>(partitions_.size()))]
        .get();
  }

  struct Snapshot {
    std::uint64_t completed = 0;
    std::uint64_t hit_completed = 0;
    std::uint64_t miss_completed = 0;
    std::uint64_t updates_sent = 0;
    std::uint64_t invs_sent = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t credit_updates_sent = 0;
    SimTime worker_busy = 0;
    SimTime kvs_busy = 0;
  };
  Snapshot TakeSnapshot() const;
  void ResetLatency() { latency_.Reset(); }
  const Histogram& latency() const { return latency_; }

 private:
  struct OpState {
    Op op;
    SimTime start = 0;
    SessionId session = 0;
    bool via_cache = false;
    bool in_use = false;
  };

  struct PendingBcast {
    TrafficClass cls;
    std::uint32_t payload_bytes;
    std::shared_ptr<const Buffer> body;
  };

  // The open RPC packet toward one peer in one traffic class: a single
  // message without coalescing, up to coalesce_max_batch with it (§8.5).
  struct RpcPacket {
    WireBatch batch;
    std::uint32_t payload_bytes = 0;
  };

  const RackParams& params() const { return rack_->params_; }
  Simulator& sim() { return rack_->sim_; }

  // Client load.
  std::uint32_t AllocSlot();
  void LaunchClosedLoopSession(std::uint32_t slot);
  void ScheduleOpenLoopArrival();
  void GenerateOp(std::uint32_t slot);
  void ProcessOp(std::uint32_t slot);
  void ExecuteCachePut(std::uint32_t slot);
  void RouteMiss(std::uint32_t slot);
  void CompleteOp(std::uint32_t slot, const Value& read_value, Timestamp ts,
                  bool via_cache);

  // KVS execution.
  int KvsThreadFor(Key key) const;
  ServicePool& KvsPoolFor(Key key);
  Partition& PartitionFor(Key key);
  // Home-side execution: if the key is hot at this (home) node, the operation
  // serializes through the home cache and its consistency protocol; otherwise
  // it goes to the shard through the residency gate (the live rack's
  // MarkCacheResident/TryPut gate): ops hitting a gated record park until the
  // install barrier settles the key or an epoch re-admits it.
  void ExecuteKvsOpAsync(const RpcRequest& req,
                         std::function<void(const RpcResponse&)> respond);
  // Re-routes parked shard ops whose key became serviceable (gate lifted, or
  // the key re-entered this node's cache).
  void RetryGatedShardOps();

  // RPC path.
  void StartRpc(std::uint32_t slot, NodeId home);
  void SendRequest(std::uint32_t slot, NodeId home);
  // Adds one request or response to the open packet for (dst, cls), and
  // ships it when coalescing is off or the packet is full.  `dst_qpn` is
  // where a lone message goes; a coalesced packet goes to kQpRpcBase.
  template <typename Msg>
  void EnqueueRpc(NodeId dst, TrafficClass cls, const Msg& msg,
                  std::uint32_t payload_bytes, std::uint16_t dst_qpn);
  void FlushRpc(NodeId dst, TrafficClass cls, std::uint16_t dst_qpn);
  RpcPacket& RpcPacketFor(NodeId dst, TrafficClass cls);
  void DrainPendingRpc(NodeId peer);
  std::uint32_t RequestPayloadBytes(const RpcRequest& req) const;
  std::uint32_t ResponsePayloadBytes(OpType op) const;

  // Consistency path.
  void SendConsistency(NodeId peer, TrafficClass cls, std::uint32_t payload_bytes,
                       std::shared_ptr<const Buffer> body,
                       std::vector<UdQp::SendWr>* batch);
  void DrainPendingBcast(NodeId peer);
  void MaybeSendCreditUpdate(NodeId peer);
  bool AllPeersHaveBcastCredit() const;
  void RetryParkedScWrites();

  // Receive handlers.
  void OnRpcRecv(const Datagram& dg);
  void OnConsistencyRecv(const Datagram& dg);
  void OnCreditRecv(const Datagram& dg);
  void OnControlRecv(const Datagram& dg);

  RackSimulation* rack_;
  NodeId id_;

  std::vector<std::unique_ptr<Partition>> partitions_;
  std::unique_ptr<SymmetricCache> cache_;
  std::unique_ptr<CoherenceEngine> engine_;
  std::unique_ptr<HotSetManager> hot_mgr_;  // online_topk runs only

  std::unique_ptr<ServicePool> workers_;
  std::vector<std::unique_ptr<ServicePool>> kvs_pools_;

  std::unique_ptr<RdmaEndpoint> endpoint_;
  std::vector<UdQp*> rpc_qps_;
  UdQp* consistency_qp_ = nullptr;
  UdQp* credit_qp_ = nullptr;
  UdQp* control_qp_ = nullptr;

  CreditPool rpc_credits_;
  CreditPool bcast_credits_;
  CreditUpdateBatcher credit_batcher_;

  WorkloadGenerator gen_;
  Rng rng_;
  std::vector<OpState> ops_;
  std::vector<std::uint32_t> free_slots_;

  // KVS ops (local misses and incoming RPCs) parked on the shard residency
  // gate during an epoch transition; re-routed by RetryGatedShardOps.
  struct ParkedShardOp {
    RpcRequest req;
    std::function<void(const RpcResponse&)> respond;
  };
  std::deque<ParkedShardOp> parked_gated_;

  std::vector<std::deque<std::uint32_t>> pending_rpc_;
  std::vector<std::deque<PendingBcast>> pending_bcast_;
  // SC write-hits parked on broadcast credits (§6.3: a cache thread cannot
  // launch a write's updates without credits; the op waits, throttling writers
  // to the fabric's consistency-message drain rate).
  std::deque<std::uint32_t> parked_sc_writes_;
  // Open RPC packets per peer: [0] requests, [1] responses (RpcPacketFor).
  std::vector<RpcPacket> rpc_packets_[2];

  std::uint64_t completed_ = 0;
  std::uint64_t hit_completed_ = 0;
  std::uint64_t miss_completed_ = 0;
  std::uint64_t updates_sent_ = 0;
  std::uint64_t invs_sent_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t credit_updates_sent_ = 0;
  bool draining_ = false;
  Histogram latency_;
};

RackNode::RackNode(RackSimulation* rack, NodeId id)
    : rack_(rack),
      id_(id),
      rpc_credits_(rack->params_.num_nodes, rack->params_.rpc_credits_per_peer),
      bcast_credits_(rack->params_.num_nodes, rack->params_.bcast_credits_per_peer),
      credit_batcher_(rack->params_.num_nodes, rack->params_.credit_update_batch),
      gen_(rack->params_.workload, /*writer_tag=*/id,
           /*seed=*/PerThreadSeed(rack->params_.seed, id), rack->zipf_),
      rng_(Mix64(rack->params_.seed ^ (0xb0b0u + id))) {
  const RackParams& p = params();

  // KVS shards: one partition per KVS thread under EREW, one shared under CRCW.
  const bool erew = p.kind == SystemKind::kBaseErew || p.kvs_erew;
  const int num_partitions = erew ? p.kvs_threads : 1;
  for (int t = 0; t < num_partitions; ++t) {
    PartitionConfig pc;
    pc.buckets = 1 << 15;
    pc.node_id = id;
    const std::uint32_t value_bytes = p.workload.value_bytes;
    pc.synthesize = [value_bytes](Key key) { return SynthesizeValue(key, value_bytes); };
    partitions_.push_back(std::make_unique<Partition>(pc));
  }

  workers_ = std::make_unique<ServicePool>(&rack->sim_, p.cache_threads);
  if (erew) {
    for (int t = 0; t < p.kvs_threads; ++t) {
      kvs_pools_.push_back(std::make_unique<ServicePool>(&rack->sim_, 1));
    }
  } else {
    kvs_pools_.push_back(std::make_unique<ServicePool>(&rack->sim_, p.kvs_threads));
  }

  // Symmetric cache + consistency engine (ccKVS), or the single dedicated
  // cache of the centralized strawman (cache node 0 only, Figure 2b).  With
  // one copy there are no sharers to invalidate: a LinEngine over a one-node
  // "cluster" completes writes inline and is trivially linearizable.
  if (p.kind == SystemKind::kCcKvs) {
    cache_ = std::make_unique<SymmetricCache>(p.cache_capacity);
    if (p.consistency == ConsistencyModel::kLin) {
      engine_ = std::make_unique<LinEngine>(id, p.num_nodes, cache_.get(), this);
    } else {
      CCKVS_CHECK(p.consistency == ConsistencyModel::kSc);
      engine_ = std::make_unique<ScEngine>(id, p.num_nodes, cache_.get(), this);
    }
  } else if (p.kind == SystemKind::kCentralCache && id == 0) {
    cache_ = std::make_unique<SymmetricCache>(p.cache_capacity);
    engine_ = std::make_unique<LinEngine>(id, /*num_nodes=*/1, cache_.get(), this);
  }

  // Hot-set subsystem (§4): node 0 doubles as the epoch coordinator; every
  // node runs the member side (install, deferral, fills, install barrier).
  if (p.kind == SystemKind::kCcKvs && p.online_topk) {
    HotSetManagerConfig hc;
    hc.self = id;
    hc.num_nodes = p.num_nodes;
    hc.coordinator = id == 0;
    hc.epoch.hot_set_size = p.cache_capacity;
    hc.epoch.requests_per_epoch = p.topk_epoch_requests;
    hc.epoch.sample_probability = p.topk_sample_probability;
    hc.epoch.seed = p.seed ^ 0x70cull;
    hc.home_of = [rack](Key key) { return rack->HomeOf(key); };
    hot_mgr_ =
        std::make_unique<HotSetManager>(hc, cache_.get(), engine_.get(), this);
  }

  // RDMA endpoint and QPs.
  endpoint_ = std::make_unique<RdmaEndpoint>(rack->net_.get(), id, p.nic);
  const int peers = p.num_nodes - 1;
  const int rpc_qp_count = erew ? p.kvs_threads : 1;
  for (int q = 0; q < rpc_qp_count; ++q) {
    QpConfig qc;
    qc.qpn = static_cast<std::uint16_t>(kQpRpcBase + q);
    qc.recv_queue_depth = std::max(64, 2 * peers * p.rpc_credits_per_peer);
    UdQp* qp = endpoint_->CreateQp(qc);
    qp->PostRecvs(qc.recv_queue_depth);
    qp->SetRecvHandler([this, qp](const Datagram& dg) {
      qp->PostRecvs(1);  // repost the consumed receive
      OnRpcRecv(dg);
    });
    rpc_qps_.push_back(qp);
  }
  {
    QpConfig qc;
    qc.qpn = kQpConsistency;
    qc.recv_queue_depth = std::max(64, 3 * peers * p.bcast_credits_per_peer);
    consistency_qp_ = endpoint_->CreateQp(qc);
    consistency_qp_->PostRecvs(qc.recv_queue_depth);
    consistency_qp_->SetRecvHandler([this](const Datagram& dg) { OnConsistencyRecv(dg); });
  }
  {
    QpConfig qc;
    qc.qpn = kQpCredit;
    qc.recv_queue_depth =
        std::max(64, peers * (p.bcast_credits_per_peer / p.credit_update_batch + 2));
    credit_qp_ = endpoint_->CreateQp(qc);
    credit_qp_->PostRecvs(qc.recv_queue_depth);
    credit_qp_->SetRecvHandler([this](const Datagram& dg) { OnCreditRecv(dg); });
  }
  {
    QpConfig qc;
    qc.qpn = kQpControl;
    qc.recv_queue_depth = 4096;
    control_qp_ = endpoint_->CreateQp(qc);
    control_qp_->PostRecvs(qc.recv_queue_depth);
    control_qp_->SetRecvHandler([this](const Datagram& dg) { OnControlRecv(dg); });
  }

  pending_rpc_.resize(static_cast<std::size_t>(p.num_nodes));
  pending_bcast_.resize(static_cast<std::size_t>(p.num_nodes));
  for (std::vector<RpcPacket>& lane : rpc_packets_) {
    lane.resize(static_cast<std::size_t>(p.num_nodes));
  }
}

void RackNode::PrefillHotSet(const std::vector<Key>& hot_keys) {
  if (cache_ == nullptr) {
    return;
  }
  cache_->InstallHotSet(hot_keys);
  for (const Key key : hot_keys) {
    cache_->Fill(key, SynthesizeValue(key, params().workload.value_bytes),
                 Timestamp{0, 0});
  }
  if (hot_mgr_ != nullptr) {
    // Epochs will manage membership from here on: raise the shard residency
    // gate of every prefilled key homed here, exactly as an epoch admission
    // would have (the same bracket the live rack sets in its constructor).
    for (const Key key : hot_keys) {
      if (rack_->HomeOf(key) == id_) {
        PartitionFor(key).MarkCacheResident(key);
      }
    }
  }
  if (hot_mgr_ != nullptr && hot_mgr_->coordinator()) {
    // Keys the first epoch drops from the oracle set must settle like any
    // published eviction before they are eligible for re-admission.
    hot_mgr_->SeedPublished(hot_keys);
  }
}

void RackNode::Start() {
  const RackParams& p = params();
  if (p.open_loop_mrps_per_node > 0.0) {
    ScheduleOpenLoopArrival();
    return;
  }
  for (int i = 0; i < p.window_per_node; ++i) {
    LaunchClosedLoopSession(AllocSlot());
  }
}

std::uint32_t RackNode::AllocSlot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    ops_[slot].in_use = true;
    return slot;
  }
  ops_.push_back(OpState{});
  ops_.back().in_use = true;
  const auto slot = static_cast<std::uint32_t>(ops_.size() - 1);
  ops_[slot].session =
      static_cast<SessionId>(id_) * 100000u + slot;  // sessions pinned to a node
  return slot;
}

void RackNode::LaunchClosedLoopSession(std::uint32_t slot) { GenerateOp(slot); }

void RackNode::ScheduleOpenLoopArrival() {
  // Poisson arrivals at open_loop_mrps_per_node.
  const double rate_per_ns = params().open_loop_mrps_per_node * 1e6 / 1e9;
  const double u = std::max(rng_.NextDouble(), 1e-12);
  const auto gap = static_cast<SimTime>(-std::log(u) / rate_per_ns);
  sim().After(std::max<SimTime>(gap, 1), [this] {
    if (draining_) {
      return;
    }
    GenerateOp(AllocSlot());
    ScheduleOpenLoopArrival();
  });
}

void RackNode::GenerateOp(std::uint32_t slot) {
  OpState& st = ops_[slot];
  st.op = gen_.Next();
  st.start = sim().now();
  st.via_cache = false;
  if (hot_mgr_ != nullptr && hot_mgr_->coordinator() && hot_mgr_->Sample(st.op.key)) {
    AnnounceHotSet(hot_mgr_->announcement());
  }
  workers_->Submit(kClientParseNs + params().cpu.cache_probe_ns +
                       endpoint_->PollSweepCost(),
                   [this, slot] { ProcessOp(slot); });
}

void RackNode::ProcessOp(std::uint32_t slot) {
  OpState& st = ops_[slot];
  const RackParams& p = params();
  if (p.kind == SystemKind::kCentralCache && rack_->IsHotKey(st.op.key)) {
    // Figure 2b: all hot traffic funnels to the dedicated cache node.
    if (id_ == 0) {
      st.via_cache = true;
      RpcRequest req;
      req.op_id = slot;
      req.op = st.op.type;
      req.key = st.op.key;
      req.value = st.op.value;
      workers_->Submit(st.op.type == OpType::kGet ? p.cpu.cache_hit_ns
                                                  : p.cpu.cache_write_ns,
                       [this, slot, req] {
                         ExecuteKvsOpAsync(req, [this, slot](const RpcResponse& r) {
                           CompleteOp(slot, r.value, r.ts, true);
                         });
                       });
    } else {
      StartRpc(slot, /*home=*/0);
    }
    return;
  }
  const CacheEntry* entry =
      p.kind == SystemKind::kCcKvs ? cache_->Probe(st.op.key) : nullptr;
  if (entry != nullptr) {
    st.via_cache = true;
    if (st.op.type == OpType::kGet) {
      if (entry->state() == CacheState::kValid) {
        // One lookup per hit, as in LiveNode::RouteOp.
        Value value;
        Timestamp ts;
        engine_->ReadHit(*entry, &value, &ts);
        workers_->Submit(p.cpu.cache_hit_ns, [this, slot, value, ts] {
          CompleteOp(slot, value, ts, true);
        });
        return;
      }
      // Not Valid: the read parks, and the parked-reader callback completes
      // the op.
      engine_->Read(st.op.key, nullptr, nullptr,
                    [this, slot](const Value& v, Timestamp t) {
                      CompleteOp(slot, v, t, true);
                    });
      return;
    }
    workers_->Submit(p.cpu.cache_write_ns, [this, slot] { ExecuteCachePut(slot); });
    return;
  }
  RouteMiss(slot);
}

void RackNode::ExecuteCachePut(std::uint32_t slot) {
  OpState& st = ops_[slot];
  const Key key = st.op.key;
  CacheEntry* entry = cache_->Find(key);
  if (entry == nullptr) {
    // The key churned out of the hot set between probe and execution (online
    // top-k runs only); fall back to the miss path.
    st.via_cache = false;
    RouteMiss(slot);
    return;
  }
  if (engine_->model() == ConsistencyModel::kSc && !AllPeersHaveBcastCredit()) {
    // SC writes complete as soon as the update broadcast is posted, so posting
    // is the throttle point: without credits for every peer the op waits.
    // (Lin writes are inherently throttled by their ack round.)
    parked_sc_writes_.push_back(slot);
    return;
  }
  engine_->Write(key, st.op.value, [this, slot, key] {
    CompleteOp(slot, ops_[slot].op.value, engine_->CompletedWriteTs(key), true);
  });
}

void RackNode::RouteMiss(std::uint32_t slot) {
  OpState& st = ops_[slot];
  const NodeId home = rack_->HomeOf(st.op.key);
  if (home == id_) {
    RpcRequest req;
    req.op_id = slot;
    req.op = st.op.type;
    req.key = st.op.key;
    req.value = st.op.value;
    KvsPoolFor(st.op.key).Submit(params().cpu.kvs_op_ns, [this, slot, req] {
      ExecuteKvsOpAsync(req, [this, slot](const RpcResponse& resp) {
        CompleteOp(slot, resp.value, resp.ts, false);
      });
    });
    return;
  }
  StartRpc(slot, home);
}

int RackNode::KvsThreadFor(Key key) const {
  return static_cast<int>(Mix64(key ^ 0x7eadu) %
                          static_cast<std::uint64_t>(params().kvs_threads));
}

ServicePool& RackNode::KvsPoolFor(Key key) {
  if (kvs_pools_.size() == 1) {
    return *kvs_pools_[0];
  }
  return *kvs_pools_[static_cast<std::size_t>(KvsThreadFor(key))];
}

Partition& RackNode::PartitionFor(Key key) {
  if (partitions_.size() == 1) {
    return *partitions_[0];
  }
  return *partitions_[static_cast<std::size_t>(KvsThreadFor(key))];
}

void RackNode::ExecuteKvsOpAsync(const RpcRequest& req,
                                 std::function<void(const RpcResponse&)> respond) {
  if (cache_ != nullptr && cache_->Find(req.key) != nullptr) {
    if (req.op == OpType::kGet) {
      Value value;
      Timestamp ts;
      const auto result = engine_->Read(
          req.key, &value, &ts,
          [op_id = req.op_id, respond](const Value& v, Timestamp t) {
            respond(RpcResponse{op_id, v, t});
          });
      if (result == CoherenceEngine::ReadResult::kHit) {
        respond(RpcResponse{req.op_id, value, ts});
      }
      return;
    }
    engine_->Write(req.key, req.value, [this, key = req.key, op_id = req.op_id,
                                        respond] {
      respond(RpcResponse{op_id, Value{}, engine_->CompletedWriteTs(key)});
    });
    return;
  }
  // Shard path, through the residency gate (same gate the live rack's direct
  // miss path uses): a record still owned by a hot-set era — evicted here but
  // not yet settled rack-wide — parks the op until the install barrier lifts
  // the gate or an epoch re-admits the key into this cache.
  Partition& part = PartitionFor(req.key);
  RpcResponse resp;
  resp.op_id = req.op_id;
  if (req.op == OpType::kGet) {
    bool resident = false;
    const bool ok = part.Get(req.key, &resp.value, &resp.ts, &resident);
    CCKVS_CHECK(ok);  // the synthesizer guarantees every GET succeeds
    if (resident) {
      parked_gated_.push_back(ParkedShardOp{req, std::move(respond)});
      return;
    }
  } else {
    if (!part.TryPut(req.key, req.value, &resp.ts)) {
      parked_gated_.push_back(ParkedShardOp{req, std::move(respond)});
      return;
    }
  }
  respond(resp);
}

void RackNode::RetryGatedShardOps() {
  if (parked_gated_.empty()) {
    return;
  }
  std::deque<ParkedShardOp> parked;
  parked.swap(parked_gated_);
  const RackParams& p = params();
  for (ParkedShardOp& op : parked) {
    const bool cached = cache_ != nullptr && cache_->Find(op.req.key) != nullptr;
    if (!cached && hot_mgr_ != nullptr && hot_mgr_->ShardGated(op.req.key)) {
      parked_gated_.push_back(std::move(op));  // still waiting on the barrier
      continue;
    }
    KvsPoolFor(op.req.key)
        .Submit(p.cpu.kvs_op_ns, [this, req = op.req,
                                  respond = std::move(op.respond)]() mutable {
          ExecuteKvsOpAsync(req, std::move(respond));
        });
  }
}

std::uint32_t RackNode::RequestPayloadBytes(const RpcRequest& req) const {
  const WireFormat& wf = params().wire;
  return req.op == OpType::kGet
             ? wf.request_payload
             : wf.request_payload + static_cast<std::uint32_t>(req.value.size());
}

std::uint32_t RackNode::ResponsePayloadBytes(OpType op) const {
  const WireFormat& wf = params().wire;
  return op == OpType::kGet ? wf.response_base_payload + params().workload.value_bytes
                            : wf.response_base_payload;
}

void RackNode::StartRpc(std::uint32_t slot, NodeId home) {
  if (!rpc_credits_.TryAcquire(home)) {
    pending_rpc_[home].push_back(slot);
    return;
  }
  SendRequest(slot, home);
}

void RackNode::SendRequest(std::uint32_t slot, NodeId home) {
  const OpState& st = ops_[slot];
  RpcRequest req;
  req.op_id = slot;
  req.op = st.op.type;
  req.key = st.op.key;
  req.value = st.op.value;
  const auto qpn = static_cast<std::uint16_t>(
      kQpRpcBase + (rpc_qps_.size() > 1 ? KvsThreadFor(req.key) : 0));
  EnqueueRpc(home, TrafficClass::kRemoteRequest, req, RequestPayloadBytes(req), qpn);
}

RackNode::RpcPacket& RackNode::RpcPacketFor(NodeId dst, TrafficClass cls) {
  return rpc_packets_[cls == TrafficClass::kRemoteRequest ? 0 : 1][dst];
}

template <typename Msg>
void RackNode::EnqueueRpc(NodeId dst, TrafficClass cls, const Msg& msg,
                          std::uint32_t payload_bytes, std::uint16_t dst_qpn) {
  const RackParams& p = params();
  RpcPacket& pkt = RpcPacketFor(dst, cls);
  if (p.coalescing && pkt.batch.empty()) {
    sim().After(p.coalesce_window_ns,
                [this, dst, cls] { FlushRpc(dst, cls, kQpRpcBase); });
  }
  pkt.batch.Append(msg);
  pkt.payload_bytes += payload_bytes;
  if (!p.coalescing) {
    FlushRpc(dst, cls, dst_qpn);
  } else if (static_cast<int>(pkt.batch.size()) >= p.coalesce_max_batch) {
    FlushRpc(dst, cls, kQpRpcBase);
  }
}

void RackNode::FlushRpc(NodeId dst, TrafficClass cls, std::uint16_t dst_qpn) {
  RpcPacket& pkt = RpcPacketFor(dst, cls);
  if (pkt.batch.empty()) {
    return;
  }
  pkt.batch.src = id_;
  UdQp::SendWr wr;
  wr.dst = dst;
  wr.dst_qpn = dst_qpn;
  wr.cls = cls;
  wr.header_bytes = params().wire.header_bytes;
  if (params().coalescing) {
    wr.header_bytes +=
        kCoalesceFramingBytes * static_cast<std::uint32_t>(pkt.batch.size());
  }
  wr.body = Frame(pkt.batch);
  wr.payload_bytes_override = pkt.payload_bytes;
  const SimTime cpu = rpc_qps_[0]->PostSendBatch({wr});
  workers_->Submit(cpu, nullptr);
  pkt.batch.clear();
  pkt.payload_bytes = 0;
}

void RackNode::DrainPendingRpc(NodeId peer) {
  while (!pending_rpc_[peer].empty() && rpc_credits_.TryAcquire(peer)) {
    const std::uint32_t slot = pending_rpc_[peer].front();
    pending_rpc_[peer].pop_front();
    SendRequest(slot, peer);
  }
}

void RackNode::CompleteOp(std::uint32_t slot, const Value& read_value, Timestamp ts,
                          bool via_cache) {
  OpState& st = ops_[slot];
  CCKVS_CHECK(st.in_use);
  ++completed_;
  if (via_cache) {
    ++hit_completed_;
  } else {
    ++miss_completed_;
  }
  latency_.Record(sim().now() - st.start);

  if (params().record_history) {
    HistoryOp h;
    h.session = st.session;
    h.type = st.op.type;
    h.key = st.op.key;
    h.value = st.op.type == OpType::kPut ? st.op.value : read_value;
    h.ts = ts;
    h.invoke = st.start;
    h.complete = sim().now();
    rack_->history_.Record(std::move(h));
  }

  if (draining_ || params().open_loop_mrps_per_node > 0.0) {
    st.in_use = false;
    free_slots_.push_back(slot);
    return;
  }
  GenerateOp(slot);  // closed loop: next request for this session
}

// ---------------------------------------------------------------------------
// Consistency traffic
// ---------------------------------------------------------------------------

void RackNode::SendConsistency(NodeId peer, TrafficClass cls,
                               std::uint32_t payload_bytes,
                               std::shared_ptr<const Buffer> body,
                               std::vector<UdQp::SendWr>* batch) {
  if (!bcast_credits_.TryAcquire(peer)) {
    pending_bcast_[peer].push_back(PendingBcast{cls, payload_bytes, std::move(body)});
    return;
  }
  UdQp::SendWr wr;
  wr.dst = peer;
  wr.dst_qpn = kQpConsistency;
  wr.cls = cls;
  wr.header_bytes = params().wire.header_bytes;
  wr.body = std::move(body);
  wr.payload_bytes_override = payload_bytes;
  batch->push_back(std::move(wr));
}

void RackNode::BroadcastUpdate(const UpdateMsg& msg) {
  const RackParams& p = params();
  if (p.kind == SystemKind::kCentralCache) {
    return;  // single cache copy: no sharers to update
  }
  const std::shared_ptr<const Buffer> body = Frame(id_, msg);
  const std::uint32_t payload =
      p.wire.update_base_payload + static_cast<std::uint32_t>(msg.value.size());

  if (p.multicast_updates) {
    // §6.3 ablation: single message to the switch, replicated at egress.  Only
    // taken when every peer has credit; otherwise fall through to unicast.
    bool all_credits = true;
    for (int j = 0; j < p.num_nodes; ++j) {
      if (j != id_ && bcast_credits_.available(static_cast<NodeId>(j)) == 0) {
        all_credits = false;
        break;
      }
    }
    if (all_credits) {
      std::vector<NodeId> dsts;
      for (int j = 0; j < p.num_nodes; ++j) {
        if (j != id_) {
          bcast_credits_.TryAcquire(static_cast<NodeId>(j));
          dsts.push_back(static_cast<NodeId>(j));
        }
      }
      UdQp::SendWr wr;
      wr.dst_qpn = kQpConsistency;
      wr.cls = TrafficClass::kUpdate;
      wr.header_bytes = p.wire.header_bytes;
      wr.body = body;
      wr.payload_bytes_override = payload;
      const SimTime cpu = consistency_qp_->PostMulticast(wr, dsts);
      workers_->Submit(cpu, nullptr);
      updates_sent_ += dsts.size();
      return;
    }
  }

  std::vector<UdQp::SendWr> batch;
  for (int j = 0; j < p.num_nodes; ++j) {
    if (j != id_) {
      SendConsistency(static_cast<NodeId>(j), TrafficClass::kUpdate, payload, body,
                      &batch);
    }
  }
  updates_sent_ += p.num_nodes - 1;
  if (!batch.empty()) {
    const SimTime cpu = consistency_qp_->PostSendBatch(batch);
    workers_->Submit(cpu, nullptr);
  }
}

void RackNode::BroadcastInvalidate(const InvalidateMsg& msg) {
  const RackParams& p = params();
  if (p.kind == SystemKind::kCentralCache) {
    return;  // single cache copy: nothing to invalidate
  }
  const std::shared_ptr<const Buffer> body = Frame(id_, msg);
  std::vector<UdQp::SendWr> batch;
  for (int j = 0; j < p.num_nodes; ++j) {
    if (j != id_) {
      SendConsistency(static_cast<NodeId>(j), TrafficClass::kInvalidation,
                      p.wire.invalidation_payload, body, &batch);
    }
  }
  invs_sent_ += p.num_nodes - 1;
  if (!batch.empty()) {
    const SimTime cpu = consistency_qp_->PostSendBatch(batch);
    workers_->Submit(cpu, nullptr);
  }
}

void RackNode::SendAck(NodeId to, const AckMsg& msg) {
  // Acks are responses to invalidations: the writer's outstanding invalidations
  // bound them, so they ride on implicit credits (§6.3).
  UdQp::SendWr wr;
  wr.dst = to;
  wr.dst_qpn = kQpConsistency;
  wr.cls = TrafficClass::kAck;
  wr.header_bytes = params().wire.header_bytes;
  wr.body = Frame(id_, msg);
  wr.payload_bytes_override = params().wire.ack_payload;
  const SimTime cpu = consistency_qp_->PostSendBatch({wr});
  workers_->Submit(cpu, nullptr);
  ++acks_sent_;
}

void RackNode::DrainPendingBcast(NodeId peer) {
  std::vector<UdQp::SendWr> batch;
  while (!pending_bcast_[peer].empty() && bcast_credits_.TryAcquire(peer)) {
    PendingBcast pb = std::move(pending_bcast_[peer].front());
    pending_bcast_[peer].pop_front();
    UdQp::SendWr wr;
    wr.dst = peer;
    wr.dst_qpn = kQpConsistency;
    wr.cls = pb.cls;
    wr.header_bytes = params().wire.header_bytes;
    wr.body = std::move(pb.body);
    wr.payload_bytes_override = pb.payload_bytes;
    batch.push_back(std::move(wr));
  }
  if (!batch.empty()) {
    const SimTime cpu = consistency_qp_->PostSendBatch(batch);
    workers_->Submit(cpu, nullptr);
  }
}

void RackNode::MaybeSendCreditUpdate(NodeId peer) {
  if (!credit_batcher_.OnReceived(peer)) {
    return;
  }
  UdQp::SendWr wr;
  wr.dst = peer;
  wr.dst_qpn = kQpCredit;
  wr.cls = TrafficClass::kCreditUpdate;
  wr.header_bytes = params().wire.CreditUpdateWire();  // header-only message
  const SimTime cpu = credit_qp_->PostSendBatch({wr});
  workers_->Submit(cpu, nullptr);
  ++credit_updates_sent_;
}

// ---------------------------------------------------------------------------
// Receive handlers
// ---------------------------------------------------------------------------

void RackNode::OnRpcRecv(const Datagram& dg) {
  const RackParams& p = params();
  WireBatch batch = Unframe(dg);
  if (std::holds_alternative<RpcRequest>(batch[0])) {
    for (const WireBody& body : batch) {
      const RpcRequest& req = std::get<RpcRequest>(body);
      KvsPoolFor(req.key).Submit(
          p.cpu.rpc_handle_ns + p.cpu.kvs_op_ns + p.nic.recv_post_ns,
          [this, req, src = dg.src] {
            ExecuteKvsOpAsync(req, [this, src, op = req.op](const RpcResponse& resp) {
              EnqueueRpc(src, TrafficClass::kRemoteResponse, resp,
                         ResponsePayloadBytes(op), kQpRpcBase);
            });
          });
    }
    return;
  }
  const SimTime cost = p.cpu.resp_handle_ns * batch.size() + p.nic.recv_post_ns;
  workers_->Submit(cost, [this, batch = std::move(batch), src = dg.src] {
    for (const WireBody& body : batch) {
      const RpcResponse& resp = std::get<RpcResponse>(body);
      rpc_credits_.Release(src);
      CompleteOp(resp.op_id, resp.value, resp.ts, false);
    }
    DrainPendingRpc(src);
  });
}

void RackNode::OnConsistencyRecv(const Datagram& dg) {
  const RackParams& p = params();
  consistency_qp_->PostRecvs(1);
  const NodeId src = dg.src;
  for (const WireBody& body : Unframe(dg)) {
    if (const auto* upd = std::get_if<UpdateMsg>(&body)) {
      workers_->Submit(p.cpu.upd_apply_ns, [this, src, msg = *upd] {
        DeliverUpdate(src, msg, *cache_, engine_.get(), hot_mgr_.get(),
                      [this](Key key) {
                        return rack_->HomeOf(key) == id_ ? &PartitionFor(key) : nullptr;
                      });
        MaybeSendCreditUpdate(src);
        MaybeRetryDeferred();
      });
    } else if (const auto* inv = std::get_if<InvalidateMsg>(&body)) {
      workers_->Submit(p.cpu.inv_apply_ns, [this, src, msg = *inv] {
        DeliverInvalidate(src, msg, *cache_, engine_.get(), hot_mgr_.get());
        MaybeSendCreditUpdate(src);
      });
    } else {
      workers_->Submit(p.cpu.ack_apply_ns, [this, src, msg = std::get<AckMsg>(body)] {
        engine_->OnAck(src, msg);
        MaybeRetryDeferred();  // the ack may have completed a deferring write
      });
    }
  }
}

bool RackNode::AllPeersHaveBcastCredit() const {
  for (int j = 0; j < params().num_nodes; ++j) {
    if (j != id_ && bcast_credits_.available(static_cast<NodeId>(j)) == 0) {
      return false;
    }
  }
  return true;
}

void RackNode::RetryParkedScWrites() {
  while (!parked_sc_writes_.empty() && AllPeersHaveBcastCredit()) {
    const std::uint32_t slot = parked_sc_writes_.front();
    parked_sc_writes_.pop_front();
    ExecuteCachePut(slot);
  }
}

void RackNode::OnCreditRecv(const Datagram& dg) {
  credit_qp_->PostRecvs(1);
  workers_->Submit(params().cpu.credit_handle_ns, [this, src = dg.src] {
    bcast_credits_.Release(src, credit_batcher_.batch());
    DrainPendingBcast(src);
    RetryParkedScWrites();
  });
}

// ---------------------------------------------------------------------------
// Epoch machinery (online top-k)
// ---------------------------------------------------------------------------

SimTime RackNode::BroadcastControl(std::shared_ptr<const Buffer> body,
                                   TrafficClass cls, std::uint32_t payload_bytes) {
  std::vector<UdQp::SendWr> batch;
  for (int j = 0; j < params().num_nodes; ++j) {
    if (j == id_) {
      continue;
    }
    UdQp::SendWr wr;
    wr.dst = static_cast<NodeId>(j);
    wr.dst_qpn = kQpControl;
    wr.cls = cls;
    wr.header_bytes = params().wire.header_bytes;
    wr.body = body;
    wr.payload_bytes_override = payload_bytes;
    batch.push_back(std::move(wr));
  }
  return control_qp_->PostSendBatch(batch);
}

void RackNode::AnnounceHotSet(const HotSetAnnounceMsg& msg) {
  // Coordinator broadcast (control class), then local installation.
  const SimTime cpu = BroadcastControlMsg(msg);
  workers_->Submit(cpu, [this, msg] { ApplyAnnounce(msg); });
}

void RackNode::ApplyAnnounce(const HotSetAnnounceMsg& msg) {
  if (hot_mgr_ == nullptr) {
    return;
  }
  hot_mgr_->DriveAnnounce(msg);  // executes the transition via the hooks below
  RetryGatedShardOps();          // a re-admission may have unparked shard ops
}

void RackNode::MaybeRetryDeferred() {
  if (hot_mgr_ != nullptr && hot_mgr_->HasDeferred()) {
    hot_mgr_->DriveDeferred();
    RetryGatedShardOps();
  }
}

// --- HotSetHost hooks: the sim half of the shared transition machine ---

void RackNode::ApplyWriteback(const SymmetricCache::Eviction& ev) {
  // §4: "only the node containing the shard with the evicted key needs to ...
  // update the underlying KVS"; symmetric contents make the local copy
  // sufficient.
  PartitionFor(ev.key).Apply(ev.key, ev.value, ev.ts);
}

RackNode::FillSnapshot RackNode::GateAndSnapshot(Key key) {
  const Partition::ResidentSnapshot snap = PartitionFor(key).MarkCacheResident(key);
  return FillSnapshot{snap.value, snap.ts};
}

void RackNode::PublishFills(const std::vector<FillMsg>& fills) {
  const RackParams& p = params();
  constexpr std::size_t kChunk = 32;
  WireBatch chunk;
  chunk.src = id_;
  for (std::size_t base = 0; base < fills.size(); base += kChunk) {
    const std::size_t end = std::min(base + kChunk, fills.size());
    chunk.clear();
    std::uint32_t payload = 0;
    for (std::size_t i = base; i < end; ++i) {
      chunk.Append(fills[i]);
      payload +=
          p.wire.update_base_payload + static_cast<std::uint32_t>(fills[i].value.size());
    }
    const SimTime cpu = BroadcastControl(Frame(chunk), TrafficClass::kCacheFill, payload);
    workers_->Submit(cpu, nullptr);
  }
}

void RackNode::PublishInstalled(const EpochInstalledMsg& msg) {
  workers_->Submit(BroadcastControlMsg(msg), nullptr);
}

void RackNode::LiftGate(Key key) {
  PartitionFor(key).ClearCacheResident(key);
}

void RackNode::OnControlRecv(const Datagram& dg) {
  control_qp_->PostRecvs(1);
  WireBatch batch = Unframe(dg);
  if (const auto* hot = std::get_if<HotSetAnnounceMsg>(&batch[0])) {
    workers_->Submit(200, [this, msg = *hot] { ApplyAnnounce(msg); });
  } else if (const auto* installed = std::get_if<EpochInstalledMsg>(&batch[0])) {
    // Barrier confirmations ride the same FIFO fabric lanes as the sender's
    // pre-install updates, and the worker pool starts jobs in delivery
    // order.  Processing a confirmation at (at least) the update-apply cost
    // makes it also *finish* after every earlier-delivered update has been
    // applied, so a lifted gate can never expose a shard read to a value
    // the barrier was waiting to drain.
    workers_->Submit(params().cpu.upd_apply_ns,
                     [this, src = dg.src, epoch = installed->epoch] {
                       if (hot_mgr_ == nullptr) {
                         return;
                       }
                       hot_mgr_->DrivePeerInstalled(src, epoch);
                       RetryGatedShardOps();  // lifted gates release parked shard ops
                     });
  } else {
    // A chunk of cache fills, applied as one job.
    workers_->Submit(params().cpu.upd_apply_ns, [this, batch = std::move(batch)] {
      if (hot_mgr_ == nullptr) {
        return;
      }
      for (const WireBody& body : batch) {
        hot_mgr_->ApplyFill(std::get<FillMsg>(body));
      }
      MaybeRetryDeferred();   // fills may have released reader-parked evictions
      RetryGatedShardOps();   // a filled key now serves parked ops via the cache
    });
  }
}

RackNode::Snapshot RackNode::TakeSnapshot() const {
  Snapshot s;
  s.completed = completed_;
  s.hit_completed = hit_completed_;
  s.miss_completed = miss_completed_;
  s.updates_sent = updates_sent_;
  s.invs_sent = invs_sent_;
  s.acks_sent = acks_sent_;
  s.credit_updates_sent = credit_updates_sent_;
  s.worker_busy = workers_->busy_time();
  for (const auto& pool : kvs_pools_) {
    s.kvs_busy += pool->busy_time();
  }
  return s;
}

// ===========================================================================
// RackSimulation
// ===========================================================================

struct RackSimulation::Counters {
  std::vector<RackNode::Snapshot> nodes;
  std::vector<std::uint64_t> class_header_bytes;
  std::vector<std::uint64_t> class_payload_bytes;
  std::uint64_t total_tx_bytes = 0;
  SimTime at = 0;
  std::uint64_t epochs = 0;
};

RackSimulation::RackSimulation(const RackParams& params)
    : params_(params), zipf_(params.workload.keyspace, params.workload.zipf_alpha) {
  CCKVS_CHECK_GE(params.num_nodes, 2);
  NetConfig net_cfg = params_.net;
  net_cfg.num_nodes = params_.num_nodes;
  params_.net = net_cfg;
  net_ = std::make_unique<Network>(&sim_, net_cfg);
  partitioner_ = std::make_unique<ModuloPartitioner>(params_.num_nodes);

  for (int i = 0; i < params_.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<RackNode>(this, static_cast<NodeId>(i)));
  }

  if (params_.prefill_hot_set &&
      (params_.kind == SystemKind::kCcKvs ||
       params_.kind == SystemKind::kCentralCache)) {
    WorkloadGenerator probe(params_.workload, 0, 0, zipf_);
    const std::vector<Key> hot = probe.HottestKeys(params_.cache_capacity);
    if (params_.kind == SystemKind::kCentralCache) {
      hot_set_.insert(hot.begin(), hot.end());
      nodes_[0]->PrefillHotSet(hot);
    } else {
      for (auto& node : nodes_) {
        node->PrefillHotSet(hot);
      }
    }
  }
}

RackSimulation::~RackSimulation() = default;

NodeId RackSimulation::HomeOf(Key key) const { return partitioner_->HomeOf(key); }

const SymmetricCache* RackSimulation::cache(NodeId node) const {
  return nodes_[node]->cache();
}
const CoherenceEngine* RackSimulation::engine(NodeId node) const {
  return nodes_[node]->engine();
}
const Partition* RackSimulation::partition(NodeId node, int kvs_thread) const {
  return nodes_[node]->partition(kvs_thread);
}
const HotSetManager* RackSimulation::hot_set_manager(NodeId node) const {
  return nodes_[node]->hot_set_manager();
}

RackReport RackSimulation::Run(SimTime measure_ns, SimTime warmup_ns, bool drain) {
  if (!started_) {
    for (auto& node : nodes_) {
      node->Start();
    }
    started_ = true;
  }
  sim_.RunUntil(sim_.now() + warmup_ns);

  // Snapshot at the end of warmup.
  at_warmup_ = std::make_unique<Counters>();
  const int num_classes = static_cast<int>(TrafficClass::kNumClasses);
  const HotSetManager* coord = nodes_[0]->hot_set_manager();
  at_warmup_->at = sim_.now();
  at_warmup_->epochs = coord != nullptr ? coord->epochs_closed() : 0;
  for (auto& node : nodes_) {
    at_warmup_->nodes.push_back(node->TakeSnapshot());
    node->ResetLatency();
  }
  for (int c = 0; c < num_classes; ++c) {
    at_warmup_->class_header_bytes.push_back(
        net_->stats().header_bytes(static_cast<TrafficClass>(c)));
    at_warmup_->class_payload_bytes.push_back(
        net_->stats().payload_bytes(static_cast<TrafficClass>(c)));
  }
  at_warmup_->total_tx_bytes = net_->stats().total_bytes();

  sim_.RunUntil(sim_.now() + measure_ns);

  // Build the report from deltas.
  RackReport report;
  const double duration_ns = static_cast<double>(sim_.now() - at_warmup_->at);
  report.duration_s = duration_ns / 1e9;

  Histogram latency;
  RackNode::Snapshot totals;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const RackNode::Snapshot now = nodes_[i]->TakeSnapshot();
    const RackNode::Snapshot& base = at_warmup_->nodes[i];
    totals.completed += now.completed - base.completed;
    totals.hit_completed += now.hit_completed - base.hit_completed;
    totals.miss_completed += now.miss_completed - base.miss_completed;
    totals.updates_sent += now.updates_sent - base.updates_sent;
    totals.invs_sent += now.invs_sent - base.invs_sent;
    totals.acks_sent += now.acks_sent - base.acks_sent;
    totals.credit_updates_sent += now.credit_updates_sent - base.credit_updates_sent;
    totals.worker_busy += now.worker_busy - base.worker_busy;
    totals.kvs_busy += now.kvs_busy - base.kvs_busy;
    latency.Merge(nodes_[i]->latency());
  }

  FillThroughput(totals.completed, totals.hit_completed, totals.miss_completed,
                 duration_ns, &report);
  FillLatency(latency, &report);

  const double n = static_cast<double>(params_.num_nodes);
  double header_bytes = 0;
  double payload_bytes = 0;
  for (int c = 0; c < num_classes; ++c) {
    const double h =
        static_cast<double>(net_->stats().header_bytes(static_cast<TrafficClass>(c)) -
                            at_warmup_->class_header_bytes[static_cast<std::size_t>(c)]);
    const double pl = static_cast<double>(
        net_->stats().payload_bytes(static_cast<TrafficClass>(c)) -
        at_warmup_->class_payload_bytes[static_cast<std::size_t>(c)]);
    report.class_gbps[c] = (h + pl) * 8.0 / duration_ns / n;
    header_bytes += h;
    payload_bytes += pl;
  }
  report.header_gbps_per_node = header_bytes * 8.0 / duration_ns / n;
  report.payload_gbps_per_node = payload_bytes * 8.0 / duration_ns / n;
  report.tx_gbps_per_node =
      static_cast<double>(net_->stats().total_bytes() - at_warmup_->total_tx_bytes) *
      8.0 / duration_ns / n;

  report.worker_utilization = static_cast<double>(totals.worker_busy) /
                              (duration_ns * n * params_.cache_threads);
  report.kvs_utilization = static_cast<double>(totals.kvs_busy) /
                           (duration_ns * n * params_.kvs_threads);

  report.updates_sent = totals.updates_sent;
  report.invalidations_sent = totals.invs_sent;
  report.acks_sent = totals.acks_sent;
  report.credit_updates_sent = totals.credit_updates_sent;
  report.epochs = coord != nullptr ? coord->epochs_closed() - at_warmup_->epochs : 0;
  report.hot_set_churn = coord != nullptr ? coord->last_epoch_churn() : 0;

  // Drain: stop issuing client operations and let everything in flight finish,
  // so recorded histories are complete and final state is quiescent.  The
  // report above is already sealed; the drain does not affect it.
  if (drain) {
    for (auto& node : nodes_) {
      node->StartDraining();
    }
    sim_.Run();
  }
  return report;
}

}  // namespace cckvs
