// Hash functions used for sharding and store indexing.

#ifndef CCKVS_COMMON_HASH_H_
#define CCKVS_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cckvs {

// 64-bit avalanche finalizer (MurmurHash3 fmix64).  Bijective on uint64.
inline std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

// FNV-1a over arbitrary bytes; used where we hash strings (e.g. ring vnode tags).
inline std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Canonical key hash used across the KVS, the cache and the partitioners so a
// key maps consistently everywhere.
inline std::uint64_t HashKey(std::uint64_t key) { return Mix64(key); }

// How one key's HashKey bits are shared out, so that no table sees bits that
// another use of the same hash has already fixed:
//   - route, the low bits: ModuloPartitioner homes a key on hash % nodes, which
//     on a power-of-two rack is the low log2(nodes) bits (below bit 16 for any
//     rack of up to 2^16 nodes);
//   - index, bits 16..47: every table that holds one home's keys (a Partition's
//     bucket index, the L1 tail's and the admission sketch's open-addressed
//     index) takes its home position from HashIndex, so a node's keys spread
//     over the whole table, not the 1/nodes of it whose low bits match;
//   - tag, bits 48..63: Partition's 16-bit slot tag.
inline constexpr std::uint64_t kHashIndexMaxSlots = std::uint64_t{1} << 32;

// Home position of `hash` in a table of mask + 1 <= kHashIndexMaxSlots slots
// (a power of two).
inline std::size_t HashIndex(std::uint64_t hash, std::size_t mask) {
  return static_cast<std::size_t>(hash >> 16) & mask;
}

}  // namespace cckvs

#endif  // CCKVS_COMMON_HASH_H_
