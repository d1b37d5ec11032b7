#include "src/cckvs/rack.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <utility>

#include "src/cckvs/node_core.h"
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

class RackNode final : public MessageSink, private NodeHostHooks {
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

  // --- Epoch machinery (the home side runs in core_) ---
  void AnnounceHotSet(const HotSetAnnounceMsg& msg);  // coordinator only
  void ApplyAnnounce(const HotSetAnnounceMsg& msg);
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
    NodeCounters ops;
    std::uint64_t updates_sent = 0;
    std::uint64_t invs_sent = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t credit_updates_sent = 0;
    SimTime worker_busy = 0;
    SimTime kvs_busy = 0;
  };
  Snapshot TakeSnapshot() const;
  void ResetLatency() { core_.latency().Reset(); }
  const Histogram& latency() const { return core_.latency(); }

 private:
  // --- NodeCore host (node_core.h): the client-op path runs in core_ ---
  friend class NodeCore<RackNode>;
  static constexpr bool kInlineCpu = false;
  static constexpr bool kRecordsLatency = true;
  template <typename Fn>
  void ChargeCpu(CpuStage stage, Fn&& fn) {
    workers_->Submit(stage == CpuStage::kCacheHit ? params().cpu.cache_hit_ns
                                                  : params().cpu.cache_write_ns,
                     std::forward<Fn>(fn));
  }
  // Every miss, self-homed ones included, is a job on a KVS thread of its
  // home (SendMiss), never a shard access in place.
  Partition* ShardFor(NodeId /*home*/) { return nullptr; }
  // The KVS thread's shard under EREW, the shared one under CRCW.
  Partition* HomeShard(Key key) {
    return rack_->HomeOf(key) == id_ ? &PartitionFor(key) : nullptr;
  }
  // An epoch's fills, in control packets of up to 32, and the install
  // confirmation, on the control QP.
  void PublishFills(const std::vector<FillMsg>& fills);
  void PublishInstalled(const EpochInstalledMsg& msg);
  void SendMiss(std::uint32_t slot);
  bool AllPeersHaveCredit() const;
  SimTime HistoryNow() { return sim().now(); }
  SimTime LatencyStamp() { return sim().now(); }
  static std::uint64_t LatencyNs(SimTime from, SimTime to) { return to - from; }
  // Closed loop: the session's next op; open loop or draining: free the slot.
  void OnComplete(std::uint32_t slot, const Value& read_value, Timestamp ts,
                  OpRoute route, std::uint64_t done);

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
  void ScheduleOpenLoopArrival();
  // Draws the slot's next op, issues it, and routes it once the request's
  // parse and probe CPU is paid.
  void IssueNext(std::uint32_t slot);
  // Figure 2b: every hot-key op funnels to the dedicated cache node.  True
  // when the op was taken that way.
  bool RouteToCentralCache(std::uint32_t slot);
  RpcRequest RequestFor(std::uint32_t slot) const;

  // KVS execution.
  int KvsThreadFor(Key key) const;
  ServicePool& KvsPoolFor(Key key);
  Partition& PartitionFor(Key key);
  // Home-side execution: if the key is hot at this (home) node, the operation
  // serializes through the home cache and its consistency protocol; otherwise
  // it goes to the shard through the residency gate (core_.ServeShardOp):
  // ops hitting a gated record park here until the install barrier settles
  // the key or an epoch re-admits it.  The live home bounces such an op to
  // its requester instead; the sim parks it here because its KVS-thread
  // timing, and with it every simulated figure, is measured that way.
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
  NodeCore<RackNode> core_;

  // KVS ops (local misses and incoming RPCs) parked on the shard residency
  // gate during an epoch transition; re-routed by RetryGatedShardOps.
  struct ParkedShardOp {
    RpcRequest req;
    std::function<void(const RpcResponse&)> respond;
  };
  std::deque<ParkedShardOp> parked_gated_;

  std::vector<std::deque<std::uint32_t>> pending_rpc_;
  std::vector<std::deque<PendingBcast>> pending_bcast_;
  // Open RPC packets per peer: [0] requests, [1] responses (RpcPacketFor).
  std::vector<RpcPacket> rpc_packets_[2];

  std::uint64_t updates_sent_ = 0;
  std::uint64_t invs_sent_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t credit_updates_sent_ = 0;
  bool draining_ = false;
};

RackNode::RackNode(RackSimulation* rack, NodeId id)
    : rack_(rack),
      id_(id),
      rpc_credits_(rack->params_.num_nodes, rack->params_.rpc_credits_per_peer),
      bcast_credits_(rack->params_.num_nodes, rack->params_.bcast_credits_per_peer),
      credit_batcher_(rack->params_.num_nodes, rack->params_.credit_update_batch),
      gen_(rack->params_.workload, /*writer_tag=*/id,
           /*seed=*/PerThreadSeed(rack->params_.seed, id), rack->zipf_),
      rng_(Mix64(rack->params_.seed ^ (0xb0b0u + id))),
      core_(this, id) {
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
        std::make_unique<HotSetManager>(hc, cache_.get(), engine_.get(), &core_);
  }
  // The central strawman's cache is reached by RouteToCentralCache alone, so
  // only ccKVS nodes probe.
  const bool probes = p.kind == SystemKind::kCcKvs;
  core_.Attach({.cache = probes ? cache_.get() : nullptr,
                .engine = probes ? engine_.get() : nullptr,
                .hot_mgr = hot_mgr_.get(),
                .history = p.record_history ? &rack->history_ : nullptr});

  // RDMA endpoint and QPs.
  endpoint_ = std::make_unique<RdmaEndpoint>(rack->net_.get(), id, p.nic);
  const int peers = p.num_nodes - 1;
  const int rpc_qp_count = erew ? p.kvs_threads : 1;
  // A QP with `depth` receives posted, delivering to `on_recv`.
  const auto make_qp = [this](int qpn, int depth, UdQp::RecvHandler on_recv) {
    QpConfig qc;
    qc.qpn = static_cast<std::uint16_t>(qpn);
    qc.recv_queue_depth = depth;
    UdQp* qp = endpoint_->CreateQp(qc);
    qp->PostRecvs(depth);
    qp->SetRecvHandler(std::move(on_recv));
    return qp;
  };
  for (int q = 0; q < rpc_qp_count; ++q) {
    UdQp* qp = make_qp(kQpRpcBase + q, std::max(64, 2 * peers * p.rpc_credits_per_peer),
                       nullptr);
    qp->SetRecvHandler([this, qp](const Datagram& dg) {
      qp->PostRecvs(1);  // repost the consumed receive
      OnRpcRecv(dg);
    });
    rpc_qps_.push_back(qp);
  }
  consistency_qp_ =
      make_qp(kQpConsistency, std::max(64, 3 * peers * p.bcast_credits_per_peer),
              [this](const Datagram& dg) { OnConsistencyRecv(dg); });
  credit_qp_ = make_qp(
      kQpCredit,
      std::max(64, peers * (p.bcast_credits_per_peer / p.credit_update_batch + 2)),
      [this](const Datagram& dg) { OnCreditRecv(dg); });
  control_qp_ =
      make_qp(kQpControl, 4096, [this](const Datagram& dg) { OnControlRecv(dg); });

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
    IssueNext(core_.Acquire());
  }
}

void RackNode::ScheduleOpenLoopArrival() {
  // Poisson arrivals at open_loop_mrps_per_node.
  const double rate_per_ns = params().open_loop_mrps_per_node * 1e6 / 1e9;
  const double u = std::max(rng_.NextDouble(), 1e-12);
  const auto gap = static_cast<SimTime>(-std::log(u) / rate_per_ns);
  sim().After(std::max<SimTime>(gap, 1), [this] {
    if (draining_) {
      return;
    }
    IssueNext(core_.Acquire());
    ScheduleOpenLoopArrival();
  });
}

void RackNode::IssueNext(std::uint32_t slot) {
  NodeCore<RackNode>::Slot& s = core_.slot(slot);
  s.op = gen_.Next();
  s.hash = HashKey(s.op.key);
  s.home = rack_->HomeOf(s.op.key);
  core_.Issue(slot);
  workers_->Submit(kClientParseNs + params().cpu.cache_probe_ns +
                       endpoint_->PollSweepCost(),
                   [this, slot] {
                     if (!RouteToCentralCache(slot)) {
                       core_.Route(slot);
                     }
                   });
}

bool RackNode::RouteToCentralCache(std::uint32_t slot) {
  const Op& op = core_.slot(slot).op;
  const RackParams& p = params();
  if (p.kind != SystemKind::kCentralCache || !rack_->IsHotKey(op.key)) {
    return false;
  }
  if (id_ != 0) {
    StartRpc(slot, /*home=*/0);
    return true;
  }
  workers_->Submit(op.type == OpType::kGet ? p.cpu.cache_hit_ns : p.cpu.cache_write_ns,
                   [this, slot, req = RequestFor(slot)] {
                     ExecuteKvsOpAsync(req, [this, slot](const RpcResponse& r) {
                       core_.Complete(slot, r.value, r.ts, OpRoute::kCache);
                     });
                   });
  return true;
}

RpcRequest RackNode::RequestFor(std::uint32_t slot) const {
  const Op& op = core_.slot(slot).op;
  return RpcRequest{.op_id = slot, .op = op.type, .key = op.key, .value = op.value};
}

void RackNode::SendMiss(std::uint32_t slot) {
  const NodeCore<RackNode>::Slot& s = core_.slot(slot);
  if (s.home != id_) {
    StartRpc(slot, s.home);
    return;
  }
  KvsPoolFor(s.op.key).Submit(params().cpu.kvs_op_ns, [this, slot,
                                                       req = RequestFor(slot)] {
    ExecuteKvsOpAsync(req, [this, slot](const RpcResponse& resp) {
      core_.Complete(slot, resp.value, resp.ts, OpRoute::kMiss);
    });
  });
}

void RackNode::OnComplete(std::uint32_t slot, const Value& /*read_value*/,
                          Timestamp /*ts*/, OpRoute /*route*/, std::uint64_t /*done*/) {
  if (draining_ || params().open_loop_mrps_per_node > 0.0) {
    core_.Release(slot);
    return;
  }
  IssueNext(slot);
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
  RpcResponse resp;
  resp.op_id = req.op_id;
  if (!core_.ServeShardOp(req, &resp.value, &resp.ts)) {
    parked_gated_.push_back(ParkedShardOp{req, std::move(respond)});
    return;
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
  const RpcRequest req = RequestFor(slot);
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
  const std::uint32_t framing =
      params().coalescing
          ? kCoalesceFramingBytes * static_cast<std::uint32_t>(pkt.batch.size())
          : 0;
  const UdQp::SendWr wr{dst, dst_qpn, cls, params().wire.header_bytes + framing,
                        Frame(pkt.batch), pkt.payload_bytes};
  workers_->Submit(rpc_qps_[0]->PostSendBatch({wr}), nullptr);
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
  batch->push_back(UdQp::SendWr{peer, kQpConsistency, cls, params().wire.header_bytes,
                                std::move(body), payload_bytes});
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
    if (AllPeersHaveCredit()) {
      std::vector<NodeId> dsts;
      for (int j = 0; j < p.num_nodes; ++j) {
        if (j != id_) {
          bcast_credits_.TryAcquire(static_cast<NodeId>(j));
          dsts.push_back(static_cast<NodeId>(j));
        }
      }
      const UdQp::SendWr wr{0, kQpConsistency, TrafficClass::kUpdate, p.wire.header_bytes,
                            body, payload};
      workers_->Submit(consistency_qp_->PostMulticast(wr, dsts), nullptr);
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
    workers_->Submit(consistency_qp_->PostSendBatch(batch), nullptr);
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
    workers_->Submit(consistency_qp_->PostSendBatch(batch), nullptr);
  }
}

void RackNode::SendAck(NodeId to, const AckMsg& msg) {
  // Acks are responses to invalidations: the writer's outstanding invalidations
  // bound them, so they ride on implicit credits (§6.3).
  const UdQp::SendWr wr{to, kQpConsistency, TrafficClass::kAck,
                        params().wire.header_bytes, Frame(id_, msg),
                        params().wire.ack_payload};
  workers_->Submit(consistency_qp_->PostSendBatch({wr}), nullptr);
  ++acks_sent_;
}

void RackNode::DrainPendingBcast(NodeId peer) {
  std::vector<UdQp::SendWr> batch;
  while (!pending_bcast_[peer].empty() && bcast_credits_.TryAcquire(peer)) {
    PendingBcast pb = std::move(pending_bcast_[peer].front());
    pending_bcast_[peer].pop_front();
    batch.push_back(UdQp::SendWr{peer, kQpConsistency, pb.cls, params().wire.header_bytes,
                                 std::move(pb.body), pb.payload_bytes});
  }
  if (!batch.empty()) {
    workers_->Submit(consistency_qp_->PostSendBatch(batch), nullptr);
  }
}

void RackNode::MaybeSendCreditUpdate(NodeId peer) {
  if (!credit_batcher_.OnReceived(peer)) {
    return;
  }
  const UdQp::SendWr wr{peer, kQpCredit, TrafficClass::kCreditUpdate,
                        params().wire.CreditUpdateWire(), nullptr, 0};  // header only
  workers_->Submit(credit_qp_->PostSendBatch({wr}), nullptr);
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
      core_.Complete(resp.op_id, resp.value, resp.ts, OpRoute::kMiss);
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
        core_.OnUpdate(src, msg);
        MaybeSendCreditUpdate(src);
        if (core_.DriveDeferred()) {
          RetryGatedShardOps();
        }
      });
    } else if (const auto* inv = std::get_if<InvalidateMsg>(&body)) {
      workers_->Submit(p.cpu.inv_apply_ns, [this, src, msg = *inv] {
        core_.OnInvalidate(src, msg);
        MaybeSendCreditUpdate(src);
      });
    } else {
      workers_->Submit(p.cpu.ack_apply_ns, [this, src, msg = std::get<AckMsg>(body)] {
        engine_->OnAck(src, msg);
        // The ack may have completed a deferring write.
        if (core_.DriveDeferred()) {
          RetryGatedShardOps();
        }
      });
    }
  }
}

bool RackNode::AllPeersHaveCredit() const {
  for (int j = 0; j < params().num_nodes; ++j) {
    if (j != id_ && bcast_credits_.available(static_cast<NodeId>(j)) == 0) {
      return false;
    }
  }
  return true;
}

void RackNode::OnCreditRecv(const Datagram& dg) {
  credit_qp_->PostRecvs(1);
  workers_->Submit(params().cpu.credit_handle_ns, [this, src = dg.src] {
    bcast_credits_.Release(src, credit_batcher_.batch());
    DrainPendingBcast(src);
    core_.RetryParkedScWrites();
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
    batch.push_back(UdQp::SendWr{static_cast<NodeId>(j), kQpControl, cls,
                                 params().wire.header_bytes, body, payload_bytes});
  }
  return control_qp_->PostSendBatch(batch);
}

void RackNode::AnnounceHotSet(const HotSetAnnounceMsg& msg) {
  // Coordinator broadcast (control class), then local installation.
  const SimTime cpu = BroadcastControlMsg(msg);
  workers_->Submit(cpu, [this, msg] { ApplyAnnounce(msg); });
}

void RackNode::ApplyAnnounce(const HotSetAnnounceMsg& msg) {
  core_.OnAnnounce(msg);  // executes the transition through the core's hooks
  RetryGatedShardOps();   // a re-admission may have unparked shard ops
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
    workers_->Submit(BroadcastControl(Frame(chunk), TrafficClass::kCacheFill, payload),
                     nullptr);
  }
}

void RackNode::PublishInstalled(const EpochInstalledMsg& msg) {
  workers_->Submit(BroadcastControlMsg(msg), nullptr);
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
                       core_.OnPeerInstalled(src, epoch);
                       RetryGatedShardOps();  // lifted gates release parked shard ops
                     });
  } else {
    // A chunk of cache fills, applied as one job.
    workers_->Submit(params().cpu.upd_apply_ns, [this, batch = std::move(batch)] {
      for (const WireBody& body : batch) {
        core_.OnFill(std::get<FillMsg>(body));
      }
      // Fills may have released reader-parked evictions, and a filled key now
      // serves parked ops via the cache.
      core_.DriveDeferred();
      RetryGatedShardOps();
    });
  }
}

RackNode::Snapshot RackNode::TakeSnapshot() const {
  Snapshot s;
  s.ops = core_.counters();
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
    totals.ops.completed += now.ops.completed - base.ops.completed;
    totals.ops.hit_completed += now.ops.hit_completed - base.ops.hit_completed;
    totals.ops.miss_completed += now.ops.miss_completed - base.ops.miss_completed;
    totals.updates_sent += now.updates_sent - base.updates_sent;
    totals.invs_sent += now.invs_sent - base.invs_sent;
    totals.acks_sent += now.acks_sent - base.acks_sent;
    totals.credit_updates_sent += now.credit_updates_sent - base.credit_updates_sent;
    totals.worker_busy += now.worker_busy - base.worker_busy;
    totals.kvs_busy += now.kvs_busy - base.kvs_busy;
    latency.Merge(nodes_[i]->latency());
  }

  FillThroughput(totals.ops.completed, totals.ops.hit_completed,
                 totals.ops.miss_completed, duration_ns, &report);
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
