#include "src/rdma/verbs.h"

#include <utility>

#include "src/common/check.h"

namespace cckvs {

UdQp::UdQp(RdmaEndpoint* endpoint, const QpConfig& config)
    : endpoint_(endpoint), config_(config) {
  CCKVS_CHECK_GE(config.signal_interval, 1);
  CCKVS_CHECK_GE(config.recv_queue_depth, 1);
}

SimTime UdQp::PerWrCost(std::uint32_t payload_bytes) const {
  const NicCostModel& cost = endpoint_->cost();
  SimTime c = payload_bytes <= cost.inline_threshold_bytes ? cost.wqe_inline_ns
                                                           : cost.wqe_ns;
  // Selective signaling: one CQE per signal_interval sends, so each send carries
  // 1/signal_interval of a poll.
  c += cost.cqe_poll_ns / static_cast<SimTime>(config_.signal_interval);
  return c;
}

SimTime UdQp::PostSendBatch(const std::vector<SendWr>& wrs) {
  if (wrs.empty()) {
    return 0;
  }
  SimTime cpu = endpoint_->cost().mmio_doorbell_ns;
  for (const SendWr& wr : wrs) {
    const std::uint32_t payload =
        wr.payload_bytes_override != 0
            ? wr.payload_bytes_override
            : (wr.body ? static_cast<std::uint32_t>(wr.body->size()) : 0);
    cpu += PerWrCost(payload);
    Packet p;
    p.src = endpoint_->node();
    p.dst = wr.dst;
    p.src_qpn = config_.qpn;
    p.dst_qpn = wr.dst_qpn;
    p.header_bytes = wr.header_bytes;
    p.payload_bytes = payload;
    p.cls = wr.cls;
    p.body = wr.body;
    endpoint_->network()->Send(p);
  }
  return cpu;
}

SimTime UdQp::PostMulticast(const SendWr& wr, const std::vector<NodeId>& dsts) {
  const std::uint32_t payload =
      wr.payload_bytes_override != 0
          ? wr.payload_bytes_override
          : (wr.body ? static_cast<std::uint32_t>(wr.body->size()) : 0);
  const SimTime cpu = endpoint_->cost().mmio_doorbell_ns + PerWrCost(payload);
  Packet p;
  p.src = endpoint_->node();
  p.src_qpn = config_.qpn;
  p.dst_qpn = wr.dst_qpn;
  p.header_bytes = wr.header_bytes;
  p.payload_bytes = payload;
  p.cls = wr.cls;
  p.body = wr.body;
  endpoint_->network()->SendMulticast(p, dsts);
  return cpu;
}

SimTime UdQp::PostRecvs(int n) {
  CCKVS_CHECK_GE(n, 0);
  available_recvs_ += n;
  CCKVS_CHECK_LE(available_recvs_, config_.recv_queue_depth);
  return endpoint_->cost().recv_post_ns * static_cast<SimTime>(n);
}

void UdQp::Deliver(const Packet& packet) {
  // An arriving UD message with no posted receive would be silently dropped by
  // real hardware; under correct credit-based flow control it can never happen,
  // so the simulator treats it as a fatal protocol violation.
  CCKVS_CHECK_GT(available_recvs_, 0);
  --available_recvs_;
  if (static_cast<std::uint64_t>(available_recvs_) < min_available_recvs_) {
    min_available_recvs_ = static_cast<std::uint64_t>(available_recvs_);
  }
  ++recvs_consumed_;
  CCKVS_CHECK(recv_handler_ != nullptr);
  Datagram dg;
  dg.src = packet.src;
  dg.src_qpn = packet.src_qpn;
  dg.cls = packet.cls;
  dg.body = packet.body;
  recv_handler_(dg);
}

RdmaEndpoint::RdmaEndpoint(Network* net, NodeId node, const NicCostModel& cost)
    : net_(net), node_(node), cost_(cost) {
  net_->SetDeliverHandler(node, [this](const Packet& p) { OnPacket(p); });
}

UdQp* RdmaEndpoint::CreateQp(const QpConfig& config) {
  auto it = qps_.find(config.qpn);
  if (it != qps_.end()) {
    return it->second.get();
  }
  auto qp = std::unique_ptr<UdQp>(new UdQp(this, config));
  UdQp* raw = qp.get();
  qps_.emplace(config.qpn, std::move(qp));
  return raw;
}

UdQp* RdmaEndpoint::GetQp(std::uint16_t qpn) const {
  auto it = qps_.find(qpn);
  return it == qps_.end() ? nullptr : it->second.get();
}

std::uint64_t RdmaEndpoint::registered_recv_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& [qpn, qp] : qps_) {
    bytes += static_cast<std::uint64_t>(qp->config().recv_queue_depth) *
             qp->config().recv_buffer_bytes;
  }
  return bytes;
}

SimTime RdmaEndpoint::PollSweepCost() const {
  // Sweeping one CQ costs ~one poll whether or not it returns a completion; a
  // node's scheduling loop touches every QP.  Amortized over the ~8 messages a
  // loop iteration typically handles.
  return cost_.cqe_poll_ns * static_cast<SimTime>(qps_.size()) / 8;
}

void RdmaEndpoint::OnPacket(const Packet& packet) {
  UdQp* qp = GetQp(packet.dst_qpn);
  CCKVS_CHECK(qp != nullptr);
  qp->Deliver(packet);
}

}  // namespace cckvs
