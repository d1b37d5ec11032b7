#include "src/store/partitioner.h"

#include <algorithm>
#include <bit>

#include "src/common/check.h"
#include "src/common/hash.h"

namespace cckvs {

ModuloPartitioner::ModuloPartitioner(int nodes)
    : nodes_(nodes),
      mask_(nodes > 1 && std::has_single_bit(static_cast<unsigned>(nodes))
                ? static_cast<std::uint64_t>(nodes) - 1
                : 0) {
  CCKVS_CHECK_GE(nodes, 1);
}

ConsistentHashRing::ConsistentHashRing(int nodes, int vnodes, std::uint64_t seed)
    : nodes_(nodes), vnodes_(vnodes), seed_(seed) {
  CCKVS_CHECK_GE(nodes, 1);
  CCKVS_CHECK_GE(vnodes, 1);
  ring_.reserve(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(vnodes));
  for (int n = 0; n < nodes; ++n) {
    InsertVNodes(static_cast<NodeId>(n));
  }
  std::sort(ring_.begin(), ring_.end());
}

void ConsistentHashRing::InsertVNodes(NodeId node) {
  for (int v = 0; v < vnodes_; ++v) {
    const std::uint64_t point =
        Mix64(seed_ ^ (static_cast<std::uint64_t>(node) << 32) ^
              static_cast<std::uint64_t>(v));
    ring_.push_back(VNode{point, node});
  }
}

NodeId ConsistentHashRing::HomeOf(Key key) const {
  CCKVS_CHECK(!ring_.empty());
  const std::uint64_t h = HashKey(key);
  auto it = std::lower_bound(ring_.begin(), ring_.end(), VNode{h, 0});
  if (it == ring_.end()) {
    it = ring_.begin();  // wrap around the ring
  }
  return it->node;
}

void ConsistentHashRing::AddNode(NodeId node) {
  InsertVNodes(node);
  std::sort(ring_.begin(), ring_.end());
  if (static_cast<int>(node) >= nodes_) {
    nodes_ = static_cast<int>(node) + 1;
  }
}

void ConsistentHashRing::RemoveNode(NodeId node) {
  ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                             [node](const VNode& v) { return v.node == node; }),
              ring_.end());
}

}  // namespace cckvs
