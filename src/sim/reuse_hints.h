// Cross-round reuse hints, attached by the engine to every RobotView.
//
// The hints identify the (graph, configuration, sensing-model) triple the
// round's packet broadcast was assembled from, in a form cheap enough to
// compare across rounds: the graph's incremental structural fingerprint and
// an XOR digest of the alive robots' positions. Algorithm 1-3 structures are
// pure functions of the packet set (Lemma 4), and the packet set is a pure
// function of this triple -- which is what makes the StructureCache keyed on
// these hints an exact memoization. The digests only SELECT cache entries;
// every consumer confirms candidates by comparing actual packet contents, so
// a digest collision costs a missed reuse, never a wrong plan.
//
// `valid` is false when the engine cannot vouch for the triple -- local
// communication, or a Byzantine model tampering packets after assembly
// (tampered packets are not a function of the triple).
// Invalid hints make every consumer fall back to the uncached path.
#pragma once

#include <cstdint>

namespace dyndisp {

/// Engine-observed relation between this round's graph and the previous
/// round's, riding with the hints so plan-layer consumers can pick their
/// strategy without re-deriving it. kSame and kSmallDelta are the regimes
/// where the StructureCache's exact-hit/delta machinery pays off, and the
/// only ones that consult it. kFullChurn rounds (the random adversaries
/// rewire everything every round) can never reuse cross-round structures,
/// so consulting -- and, worse, RETAINING into -- the cache only pins a
/// dead copy of the round's packet storage; kUnknown (plan probes, whose
/// candidate graphs have no cross-round relation) rarely repeats. Both are
/// planned in the PlanCache's retained workspace. Purely a performance
/// signal: every route computes the bitwise-identical plan (the
/// StructureCache-vs-plan_round unit tests and the faithful per-robot
/// planner pin it).
enum class GraphChange : std::uint8_t {
  kUnknown,
  kSame,        ///< G_r operator== G_{r-1}.
  kSmallDelta,  ///< G_r differs from G_{r-1} on few nodes (engine cap n/4).
  kFullChurn,   ///< G_r is essentially unrelated to G_{r-1}.
};

struct ReuseHints {
  bool valid = false;
  /// Whether the packets carry 1-neighborhood information (part of the
  /// packet-defining triple; the fingerprint and digest do not capture it).
  bool neighborhood = false;
  std::uint64_t graph_fp = 0;    ///< Graph::fingerprint() of the round graph.
  std::uint64_t conf_digest = 0; ///< XOR digest of alive (robot, node) pairs.
  GraphChange change = GraphChange::kUnknown;  ///< Graph-vs-last-round signal.
};

}  // namespace dyndisp
