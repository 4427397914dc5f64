// Deterministic 64-bit structural fingerprints for port-labeled graphs.
//
// The fingerprint is an XOR of one mixed term per edge (a commutative
// accumulator), finalized with the node count, so Graph can maintain it
// INCREMENTALLY through every mutator: add/remove/permute touch O(deg)
// terms, and reading the fingerprint is O(1). Two graphs with equal edge
// sets and equal port labelings always produce equal fingerprints; unequal
// graphs collide with probability ~2^-64 per pair. Consumers that need a
// hard guarantee (the engine's broadcast-reuse path) use the fingerprint
// as a fast reject and confirm with Graph::operator==; consumers that can
// tolerate the astronomical collision odds (validation skipping, cache
// keys whose misuse the broadcast-reference oracle would catch) use it
// directly.
//
// The mixer is the splitmix64 finalizer over the same constants util/rng.h
// seeds with -- a fixed, seeded function, never std::hash (whose value is
// implementation-defined and would break cross-build determinism).
#pragma once

#include <cstdint>

#include "util/types.h"

namespace dyndisp {

/// splitmix64's output mixer: a fixed 64-bit bijection with full avalanche.
inline std::uint64_t fp_mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The XOR-accumulator term of one port-labeled edge {u, v} with port pu at
/// u and pv at v. Canonicalized by endpoint id, so either endpoint computes
/// the identical term; any change to an endpoint or a port changes it.
inline std::uint64_t fp_edge_term(NodeId u, NodeId v, Port pu, Port pv) {
  if (v < u) {
    const NodeId tn = u; u = v; v = tn;
    const Port tp = pu; pu = pv; pv = tp;
  }
  const std::uint64_t endpoints =
      (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
  const std::uint64_t ports =
      (static_cast<std::uint64_t>(pu) << 32) | static_cast<std::uint64_t>(pv);
  return fp_mix(fp_mix(endpoints) ^ ports);
}

}  // namespace dyndisp
