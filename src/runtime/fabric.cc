#include "src/runtime/fabric.h"

#include <atomic>
#include <utility>

#include "src/common/check.h"
#include "src/runtime/channel.h"
#include "src/runtime/shm_fabric.h"
#include "src/runtime/socket_fabric.h"

namespace cckvs {
namespace {

// The original single-process transport, behind the interface: one
// MpscChannel per node and a credit matrix of atomics.  Batches move by value — no serialization on this path, which is
// what makes inproc the baseline the byte-moving backends are diffed against.
class InprocFabric final : public TransportFabric {
 public:
  explicit InprocFabric(const FabricConfig& config)
      : num_nodes_(config.num_nodes),
        returned_(static_cast<std::size_t>(config.num_nodes) * config.num_nodes) {
    inboxes_.reserve(static_cast<std::size_t>(num_nodes_));
    for (int i = 0; i < num_nodes_; ++i) {
      inboxes_.push_back(
          std::make_unique<MpscChannel<WireBatch>>(config.channel_capacity));
    }
  }

  void Deliver(NodeId to, WireBatch&& batch) override {
    inboxes_[to]->Push(std::move(batch));
  }

  std::size_t Drain(NodeId self, std::vector<WireBatch>* out,
                    std::size_t max) override {
    return inboxes_[self]->TryDrain(out, max);
  }

  void Wait(NodeId self, std::chrono::microseconds timeout) override {
    std::vector<WireBatch> none;
    inboxes_[self]->WaitDrain(&none, /*max=*/0, timeout);  // wakes on arrival
  }

  void ReturnCredits(NodeId self, NodeId to, int n) override {
    // The live analogue of the header-only credit-update message: an atomic
    // add on the sender's (to's) counter for the to->self direction.
    Cell(to, self).fetch_add(n, std::memory_order_release);
  }

  int TakeReturnedCredits(NodeId self, NodeId peer) override {
    return Cell(self, peer).exchange(0, std::memory_order_acquire);
  }

  FabricStats stats(NodeId self) const override {
    const MpscChannel<WireBatch>& inbox = *inboxes_[self];
    return FabricStats{inbox.pushes(), inbox.full_waits(), inbox.wakeups()};
  }

  std::uint64_t InboundDepth(NodeId self) const override {
    return inboxes_[self]->size();
  }

 private:
  // Credits peers have returned to `sender`, per returning peer.
  std::atomic<int>& Cell(NodeId sender, NodeId returner) {
    return returned_[static_cast<std::size_t>(sender) * num_nodes_ + returner];
  }

  const int num_nodes_;
  std::vector<std::unique_ptr<MpscChannel<WireBatch>>> inboxes_;
  std::vector<std::atomic<int>> returned_;
};

}  // namespace

std::unique_ptr<TransportFabric> MakeFabric(const FabricConfig& config,
                                            const TransportOptions& opts,
                                            std::string* error) {
  CCKVS_CHECK_GE(config.num_nodes, 2);
  switch (opts.kind) {
    case TransportKind::kInproc:
      CCKVS_CHECK_LT(opts.rank, 0);  // inproc cannot span processes
      return std::make_unique<InprocFabric>(config);
    case TransportKind::kShm:
      return MakeShmFabric(config, opts, error);
    case TransportKind::kSocket:
      return MakeSocketFabric(config, opts, error);
  }
  *error = "unknown transport kind";
  return nullptr;
}

}  // namespace cckvs
