#include "benchmark/driver/replay.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/l1_tail.h"
#include "src/cache/symmetric_cache.h"
#include "src/common/check.h"
#include "src/common/cycles.h"
#include "src/protocol/engine.h"
#include "src/runtime/coalescer.h"
#include "src/runtime/fabric.h"
#include "src/runtime/wire_codec.h"
#include "src/store/partition.h"
#include "src/store/partitioner.h"
#include "src/topk/flat_space_saving.h"
#include "src/workload/workload.h"

namespace cckvs::benchmark {
namespace {

// Cycle totals of one layer's timed calls.  The signal fences keep the
// compiler from moving the call's work across the two counter reads.
class LayerTimer {
 public:
  template <typename F>
  void Time(F&& call) {
    std::atomic_signal_fence(std::memory_order_seq_cst);
    const std::uint64_t t0 = CycleNow();
    std::atomic_signal_fence(std::memory_order_seq_cst);
    call();
    std::atomic_signal_fence(std::memory_order_seq_cst);
    cycles_ += CycleNow() - t0;
    ++calls_;
  }

  std::uint64_t calls() const { return calls_; }
  double MeanCycles() const {
    return calls_ == 0 ? 0.0 : static_cast<double>(cycles_) / static_cast<double>(calls_);
  }
  // Mean ns per call net of the timer's own cost; 0 when never called.
  double MeanNs(double overhead_cycles) const {
    if (calls_ == 0) {
      return 0.0;
    }
    return std::max(0.0, MeanCycles() - overhead_cycles) / CyclesPerNs();
  }

 private:
  std::uint64_t cycles_ = 0;
  std::uint64_t calls_ = 0;
};

double TimerOverheadCycles() {
  LayerTimer empty;
  for (int i = 0; i < 200'000; ++i) {
    empty.Time([] {});
  }
  return empty.MeanCycles();
}

// Keeps what an engine sends so the replay can hand it to the peer engine
// and the coalescer.  Slots are reused by assignment, so recording a
// message does not allocate once the slot's value has grown.
template <typename T>
class Recorded {
 public:
  void Push(const T& msg) {
    if (size_ < slots_.size()) {
      slots_[size_] = msg;
    } else {
      slots_.push_back(msg);
    }
    ++size_;
  }
  std::size_t size() const { return size_; }
  const T& operator[](std::size_t i) const { return slots_[i]; }
  void Clear() { size_ = 0; }

 private:
  std::vector<T> slots_;
  std::size_t size_ = 0;
};

class RecordingSink final : public MessageSink {
 public:
  void BroadcastUpdate(const UpdateMsg& msg) override { updates.Push(msg); }
  void BroadcastInvalidate(const InvalidateMsg& msg) override {
    invalidations.Push(msg);
  }
  void SendAck(NodeId to, const AckMsg& msg) override {
    (void)to;
    acks.Push(msg);
  }

  Recorded<UpdateMsg> updates;
  Recorded<InvalidateMsg> invalidations;
  Recorded<AckMsg> acks;
};

std::unique_ptr<CoherenceEngine> MakeEngine(ConsistencyModel model, NodeId self,
                                            int nodes, SymmetricCache* cache,
                                            MessageSink* sink) {
  if (model == ConsistencyModel::kLin) {
    return std::make_unique<LinEngine>(self, nodes, cache, sink);
  }
  return std::make_unique<ScEngine>(self, nodes, cache, sink);
}

// Node 0 of the rack, rebuilt single-threaded: its generator, symmetric
// cache, engine, L1 and sketch, plus every shard and one peer engine that
// stands in for the other nodes' protocol handlers.
class Replay {
 public:
  Replay(const LiveRackParams& p, std::unique_ptr<TransportFabric> fabric)
      : p_(p),
        nodes_(p.num_nodes),
        gen_(std::move(MakePerThreadGenerators(p.workload, p.num_nodes, p.seed)[0])),
        partitioner_(p.num_nodes),
        cache_(p.cache_capacity),
        peer_cache_(p.cache_capacity),
        fabric_(std::move(fabric)) {
    // The hot set LiveRack installs (LiveRack's constructor, prefill_hot_set).
    WorkloadGenerator probe(p.workload, /*writer_tag=*/0, /*seed=*/0);
    const std::vector<Key> hot = probe.HottestKeys(p.cache_capacity);
    for (SymmetricCache* c : {&cache_, &peer_cache_}) {
      c->InstallHotSet(hot);
      for (const Key key : hot) {
        c->Fill(key, SynthesizeValue(key, p.workload.value_bytes), Timestamp{0, 0});
      }
    }
    engine_ = MakeEngine(p.consistency, 0, nodes_, &cache_, &sink_);
    peer_ = MakeEngine(p.consistency, 1, nodes_, &peer_cache_, &peer_sink_);
    engine_->PrewarmScratch(p.workload.value_bytes);
    peer_->PrewarmScratch(p.workload.value_bytes);
    if (p.l1_capacity > 0) {
      l1_ = std::make_unique<L1TailCache>(p.l1_capacity, p.l1_policy,
                                          p.workload.value_bytes);
      sketch_ = std::make_unique<FlatSpaceSaving>(p.l1_capacity * 2);
    }
    CoalescerConfig cc;
    cc.self = 0;
    cc.num_peers = nodes_;
    cc.enabled = p.coalescing;
    cc.max_batch = p.coalesce_max_batch;
    cc.pool = &fabric_->batch_pool();
    coalescer_ = std::make_unique<SendCoalescer>(cc);
    // The shards, built and prefilled as LiveNode and LiveRack build them.
    const std::uint32_t vb = p.workload.value_bytes;
    for (int i = 0; i < nodes_; ++i) {
      PartitionConfig pc;
      pc.buckets = p.partition_buckets;
      pc.node_id = static_cast<NodeId>(i);
      pc.synthesize = [vb](Key key) { return SynthesizeValue(key, vb); };
      pc.synthesize_into = [vb](Key key, Value* out) {
        SynthesizeValueInto(key, vb, out);
      };
      shards_.push_back(std::make_unique<Partition>(pc));
    }
    Value value;
    for (std::uint64_t k = 0; k < p.workload.keyspace; ++k) {
      const Key key = static_cast<Key>(k);
      SynthesizeValueInto(key, vb, &value);
      Partition& shard = *shards_[partitioner_.HomeOf(key)];
      prefill_.Time([&] { shard.Apply(key, value, Timestamp{0, 0}); });
    }
  }

  void Run(std::uint64_t ops) {
    Op op;
    for (std::uint64_t i = 0; i < ops; ++i) {
      next_.Time([&] { gen_.NextInto(&op); });
      RouteOp(op);
      // The run loop's op boundary: it ships every open batch once per
      // iteration, and an iteration issues up to one op per session.
      if ((i + 1) % static_cast<std::uint64_t>(p_.window_per_node) == 0) {
        FlushBatches();
      }
    }
    FlushBatches();
  }

  ReplayCosts Costs() const {
    const double oh = TimerOverheadCycles();
    ReplayCosts c;
    c.next_ns = next_.MeanNs(oh);
    c.sym_probe_ns = probe_.MeanNs(oh);
    c.sym_read_ns = read_.MeanNs(oh);
    c.l1_get_ns = l1_get_.MeanNs(oh);
    c.l1_fill_ns = l1_fill_.MeanNs(oh);
    c.l1_invalidate_ns = l1_invalidate_.MeanNs(oh);
    c.sketch_offer_ns = offer_.MeanNs(oh);
    c.store_get_ns = get_.MeanNs(oh);
    c.store_tryput_ns = tryput_.MeanNs(oh);
    c.prefill_ns_per_key = prefill_.MeanNs(oh);
    c.write_ns = write_.MeanNs(oh);
    c.on_update_ns = on_update_.MeanNs(oh);
    c.on_invalidate_ns = on_invalidate_.MeanNs(oh);
    c.on_ack_ns = on_ack_.MeanNs(oh);
    c.append_ns = append_.MeanNs(oh);
    c.take_ns = take_.MeanNs(oh);
    c.roundtrip_ns = roundtrip_.MeanNs(oh);
    if (wire_msgs_ > 0) {
      // The codec timers run once per batch; report per message.
      const double per_batch = static_cast<double>(encode_.calls());
      const double msgs = static_cast<double>(wire_msgs_);
      c.encode_ns_per_msg = encode_.MeanNs(oh) * per_batch / msgs;
      c.decode_ns_per_msg = decode_.MeanNs(oh) * per_batch / msgs;
      c.bytes_per_msg = static_cast<double>(wire_bytes_) / msgs;
    }
    return c;
  }

 private:
  // LiveNode::RouteOp / RouteMissOp / CompleteOp, minus the sessions.
  void RouteOp(const Op& op) {
    const Key key = op.key;
    const bool put = op.type == OpType::kPut;
    if (l1_ != nullptr) {
      if (put) {
        l1_invalidate_.Time([&] { l1_->Invalidate(key); });
      } else {
        bool hit = false;
        l1_get_.Time([&] { hit = l1_->Get(key, &scratch_, &ts_); });
        if (hit) {
          return;
        }
      }
    }
    bool cached = false;
    probe_.Time([&] { cached = cache_.Probe(key); });
    if (cached) {
      if (put) {
        write_.Time([&] { engine_->Write(key, op.value, write_done_); });
        Exchange();
      } else {
        read_.Time([&] { engine_->Read(key, &scratch_, &ts_, read_done_); });
      }
      return;
    }
    Partition& home = *shards_[partitioner_.HomeOf(key)];
    if (put) {
      bool ok = false;
      tryput_.Time([&] { ok = home.TryPut(key, op.value, &ts_); });
      CCKVS_CHECK(ok);
      if (l1_ != nullptr) {
        // The second invalidation at PUT completion (LiveNode::CompleteOp).
        l1_invalidate_.Time([&] { l1_->Invalidate(key); });
      }
      return;
    }
    bool resident = false;
    get_.Time([&] { home.Get(key, &scratch_, &ts_, &resident); });
    if (l1_ != nullptr) {
      // LiveNode::MaybeAdmitToL1.
      std::uint64_t guaranteed = 0;
      offer_.Time([&] { sketch_->Offer(key, &guaranteed); });
      if (++offers_ % (sketch_->capacity() * 8) == 0) {
        sketch_->DecayHalve();
      }
      if (guaranteed >= 2 && cache_.Find(key) == nullptr) {
        l1_fill_.Time([&] { l1_->Fill(key, scratch_, ts_); });
      }
    }
  }

  // Node 0's broadcasts go to every peer through the coalescer; the peer
  // engine handles one copy (standing in for each peer) and its acks come
  // back to node 0 once per peer.  Lin acks complete the write, which
  // broadcasts the update handled below.
  void Exchange() {
    for (std::size_t i = 0; i < sink_.invalidations.size(); ++i) {
      const InvalidateMsg& inv = sink_.invalidations[i];
      Send(inv);
      on_invalidate_.Time([&] { peer_->OnInvalidate(0, inv); });
      for (std::size_t a = 0; a < peer_sink_.acks.size(); ++a) {
        const AckMsg& ack = peer_sink_.acks[a];
        for (int peer = 1; peer < nodes_; ++peer) {
          on_ack_.Time([&] { engine_->OnAck(static_cast<NodeId>(peer), ack); });
        }
      }
      peer_sink_.acks.Clear();
    }
    for (std::size_t i = 0; i < sink_.updates.size(); ++i) {
      const UpdateMsg& upd = sink_.updates[i];
      Send(upd);
      on_update_.Time([&] { peer_->OnUpdate(0, upd); });
    }
    sink_.invalidations.Clear();
    sink_.updates.Clear();
  }

  template <typename T>
  void Send(const T& msg) {
    for (int peer = 1; peer < nodes_; ++peer) {
      const auto to = static_cast<NodeId>(peer);
      bool full = false;
      append_.Time([&] { full = coalescer_->AppendTyped(to, msg); });
      if (full) {
        Ship(to, FlushCause::kSize);
      }
    }
  }

  void FlushBatches() {
    for (int peer = 1; peer < nodes_; ++peer) {
      const auto to = static_cast<NodeId>(peer);
      if (!coalescer_->empty(to)) {
        Ship(to, FlushCause::kBoundary);
      }
    }
  }

  // Closes the open batch for `to`, prices its encoding on the side, and
  // moves it through the fabric into the peer's inbox and back out.
  void Ship(NodeId to, FlushCause cause) {
    WireBatch batch;
    take_.Time([&] { batch = coalescer_->Take(to, cause); });
    encode_.Time([&] {
      wire_buf_.clear();
      SerializeWireBatch(batch, &wire_buf_);
    });
    bool decoded_ok = false;
    decode_.Time([&] { decoded_ok = TryDeserializeWireBatch(wire_buf_, &decoded_); });
    CCKVS_CHECK(decoded_ok);
    wire_msgs_ += batch.size();
    wire_bytes_ += wire_buf_.size();
    std::size_t drained = 0;
    roundtrip_.Time([&] {
      fabric_->Deliver(to, std::move(batch));
      drained = fabric_->Drain(to, &inbox_, 1);
    });
    CCKVS_CHECK_EQ(drained, 1u);
    for (WireBatch& b : inbox_) {
      fabric_->batch_pool().Recycle(std::move(b));
    }
    inbox_.clear();
  }

  const LiveRackParams p_;
  const int nodes_;
  WorkloadGenerator gen_;
  ModuloPartitioner partitioner_;
  SymmetricCache cache_;
  SymmetricCache peer_cache_;
  RecordingSink sink_;
  RecordingSink peer_sink_;
  std::unique_ptr<CoherenceEngine> engine_;
  std::unique_ptr<CoherenceEngine> peer_;
  std::unique_ptr<L1TailCache> l1_;
  std::unique_ptr<FlatSpaceSaving> sketch_;
  std::uint64_t offers_ = 0;
  std::unique_ptr<TransportFabric> fabric_;
  std::unique_ptr<SendCoalescer> coalescer_;
  std::vector<std::unique_ptr<Partition>> shards_;

  const CoherenceEngine::WriteDone write_done_ = [] {};
  const CoherenceEngine::ReadDone read_done_ = [](const Value&, Timestamp) {};
  Value scratch_;
  Timestamp ts_;
  Buffer wire_buf_;
  WireBatch decoded_;
  std::vector<WireBatch> inbox_;
  std::uint64_t wire_msgs_ = 0;
  std::uint64_t wire_bytes_ = 0;

  LayerTimer next_, probe_, read_, l1_get_, l1_fill_, l1_invalidate_, offer_;
  LayerTimer get_, tryput_, prefill_, write_, on_update_, on_invalidate_, on_ack_;
  LayerTimer append_, take_, encode_, decode_, roundtrip_;
};

}  // namespace

bool RunReplay(const LiveRackParams& params, std::uint64_t ops,
               const std::string& shm_name, ReplayCosts* out, std::string* error) {
  CyclesPerNs();  // calibrate before any timed call
  FabricConfig fc;
  fc.num_nodes = params.num_nodes;
  TransportOptions topts = params.transport;
  topts.rank = -1;
  topts.shm_name = shm_name;
  std::unique_ptr<TransportFabric> fabric = MakeFabric(fc, topts, error);
  if (fabric == nullptr) {
    return false;
  }
  Replay replay(params, std::move(fabric));
  replay.Run(ops);
  *out = replay.Costs();
  return true;
}

}  // namespace cckvs::benchmark
