// Key-to-node sharding (S12).
//
// The paper shards the dataset "using techniques such as consistent hashing"
// (§1).  Two interchangeable policies are provided: a consistent-hashing ring
// with virtual nodes (realistic, supports smooth resharding) and a plain modulo
// mapping (useful in tests where exact placement must be predictable).

#ifndef CCKVS_STORE_PARTITIONER_H_
#define CCKVS_STORE_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/types.h"

namespace cckvs {

class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual NodeId HomeOf(Key key) const = 0;
  virtual int num_nodes() const = 0;
};

// Homes a key on HashKey(key) % nodes.
class ModuloPartitioner final : public Partitioner {
 public:
  explicit ModuloPartitioner(int nodes);

  NodeId HomeOf(Key key) const override { return HomeOfHash(HashKey(key)); }
  int num_nodes() const override { return nodes_; }

  // The home of a key whose HashKey is `hash`, for callers that hash each key
  // once.  A power-of-two rack masks, which equals the modulo.
  NodeId HomeOfHash(std::uint64_t hash) const {
    return static_cast<NodeId>(mask_ != 0 ? hash & mask_
                                          : hash % static_cast<std::uint64_t>(nodes_));
  }

 private:
  int nodes_;
  std::uint64_t mask_;  // nodes - 1 when nodes is a power of two above 1, else 0
};

// Consistent-hashing ring (Karger et al.) with `vnodes` virtual nodes per
// server.  HomeOf walks clockwise to the first vnode at or after hash(key).
class ConsistentHashRing final : public Partitioner {
 public:
  ConsistentHashRing(int nodes, int vnodes = 128, std::uint64_t seed = 1);

  NodeId HomeOf(Key key) const override;
  int num_nodes() const override { return nodes_; }

  // Ring surgery, for remapping tests: fraction of keys that move on node
  // add/remove should be ~1/N.
  void AddNode(NodeId node);
  void RemoveNode(NodeId node);

 private:
  struct VNode {
    std::uint64_t point;
    NodeId node;

    friend bool operator<(const VNode& a, const VNode& b) {
      if (a.point != b.point) {
        return a.point < b.point;
      }
      return a.node < b.node;
    }
  };

  void InsertVNodes(NodeId node);

  int nodes_;
  int vnodes_;
  std::uint64_t seed_;
  std::vector<VNode> ring_;
};

}  // namespace cckvs

#endif  // CCKVS_STORE_PARTITIONER_H_
