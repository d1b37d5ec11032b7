// Simulated RDMA UD verbs (substrate S3).
//
// ccKVS communicates with two-sided RDMA: RPCs over Unreliable Datagram sends in
// the style of FaSST (§6.3).  This layer reproduces the mechanisms the paper's
// performance story depends on:
//
//  * UD queue pairs addressed by (node, qpn); ccKVS gives each thread separate QPs
//    for remote requests, consistency messages and credit updates (§6.4).
//  * Doorbell batching: a linked list of work requests is posted with one MMIO
//    write; the NIC fetches WQEs in bulk, amortizing PCIe cost (§6.4).
//  * Payload inlining: payloads below the inline threshold (189 B, §6.4) ride in
//    the WQE itself and skip the NIC's second DMA read.
//  * Selective signaling: only every `signal_interval`-th send generates a CQE,
//    cutting completion-polling cost (§6.4).
//  * Posted receives: UD requires a pre-posted receive per incoming message.  An
//    arriving packet with an empty receive queue is a hard failure (CHECK) — this
//    is how the simulator *proves* the credit-based flow control of §6.3 correct,
//    rather than assuming it.
//
// CPU costs are returned to the caller (the node model adds them to thread
// service times); the fabric costs are applied by src/net.

#ifndef CCKVS_RDMA_VERBS_H_
#define CCKVS_RDMA_VERBS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/net/network.h"
#include "src/rdma/serialize.h"

namespace cckvs {

// CPU cost model for NIC interaction, in nanoseconds.  Defaults are in the range
// reported for ConnectX-class NICs by Kalia et al. (Design Guidelines, ATC'16).
struct NicCostModel {
  SimTime mmio_doorbell_ns = 80;   // one MMIO write per posted batch
  SimTime wqe_ns = 25;             // per WR, payload fetched with a second DMA
  SimTime wqe_inline_ns = 15;      // per WR, payload inlined into the WQE
  SimTime cqe_poll_ns = 30;        // per completion reaped
  SimTime recv_post_ns = 10;       // per posted receive (posted in batches)
  std::uint32_t inline_threshold_bytes = 189;  // §6.4
};

struct QpConfig {
  std::uint16_t qpn = 0;
  int send_queue_depth = 128;
  int recv_queue_depth = 1024;
  int signal_interval = 16;               // selective-signaling batch
  std::uint32_t recv_buffer_bytes = 1096;  // registered memory per posted recv
};

// A datagram handed to the application on receive.
struct Datagram {
  NodeId src = 0;
  std::uint16_t src_qpn = 0;
  TrafficClass cls = TrafficClass::kControl;
  std::shared_ptr<const Buffer> body;
};

class RdmaEndpoint;

// An Unreliable Datagram queue pair.
class UdQp {
 public:
  struct SendWr {
    NodeId dst = 0;
    std::uint16_t dst_qpn = 0;
    TrafficClass cls = TrafficClass::kControl;
    std::uint32_t header_bytes = 0;
    std::shared_ptr<const Buffer> body;  // may be null for header-only messages
    // Nominal on-wire payload size.  When nonzero it overrides body->size():
    // the semantic buffers of the simulator are not byte-exact replicas of the
    // paper's wire encoding, but the modelled sizes must be (see WireFormat).
    std::uint32_t payload_bytes_override = 0;
  };

  using RecvHandler = std::function<void(const Datagram&)>;

  // Posts a batch of sends behind a single doorbell.  Returns the CPU time the
  // posting thread spent (doorbell + per-WQE + amortized completion polling).
  SimTime PostSendBatch(const std::vector<SendWr>& wrs);

  // Posts the same payload to each destination via switch multicast (§6.3):
  // one WQE, one doorbell, one TX traversal; the switch replicates.
  SimTime PostMulticast(const SendWr& wr, const std::vector<NodeId>& dsts);

  // Replenishes the receive queue.  Returns the CPU time spent posting.
  SimTime PostRecvs(int n);

  void SetRecvHandler(RecvHandler handler) { recv_handler_ = std::move(handler); }

  const QpConfig& config() const { return config_; }
  int available_recvs() const { return available_recvs_; }
  std::uint64_t recvs_consumed() const { return recvs_consumed_; }
  std::uint64_t min_available_recvs() const { return min_available_recvs_; }

 private:
  friend class RdmaEndpoint;

  UdQp(RdmaEndpoint* endpoint, const QpConfig& config);
  void Deliver(const Packet& packet);
  SimTime PerWrCost(std::uint32_t payload_bytes) const;

  RdmaEndpoint* endpoint_;
  QpConfig config_;
  RecvHandler recv_handler_;
  int available_recvs_ = 0;
  std::uint64_t min_available_recvs_ = ~0ull;
  std::uint64_t recvs_consumed_ = 0;
  int unsignaled_run_ = 0;
};

// The per-node NIC: owns the node's QPs and demultiplexes arriving packets.
class RdmaEndpoint {
 public:
  RdmaEndpoint(Network* net, NodeId node, const NicCostModel& cost);

  // Creates (or returns the existing) QP with config.qpn.
  UdQp* CreateQp(const QpConfig& config);
  UdQp* GetQp(std::uint16_t qpn) const;

  NodeId node() const { return node_; }
  Network* network() const { return net_; }
  const NicCostModel& cost() const { return cost_; }

  int num_qps() const { return static_cast<int>(qps_.size()); }

  // Registered receive-buffer memory across all QPs, for the §6.4
  // connection-scaling discussion (posted receives scale with connection count).
  std::uint64_t registered_recv_bytes() const;

  // Amortized per-operation CPU overhead of sweeping all CQs for completions.
  // More QPs -> more (mostly empty) queues polled per scheduling loop; this is
  // the mechanism behind the CRCW-over-EREW win of §6.4.
  SimTime PollSweepCost() const;

 private:
  friend class UdQp;
  void OnPacket(const Packet& packet);

  Network* net_;
  NodeId node_;
  NicCostModel cost_;
  std::unordered_map<std::uint16_t, std::unique_ptr<UdQp>> qps_;
};

}  // namespace cckvs

#endif  // CCKVS_RDMA_VERBS_H_
