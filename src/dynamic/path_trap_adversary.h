// The Theorem 1 impossibility adversary (local communication model, Fig. 1).
//
// Invariant it maintains: the occupied nodes form a path with a multiplicity
// node at one end, and all empty nodes hang off the far end as a star blob.
// The only empty node adjacent to any occupied node is the blob center, so
// the occupied-node count can grow only if the robot at the path end enters
// the blob AND the entire chain of robots behind it shifts forward in the
// same round. Because robots communicate only locally, interior robots
// cannot know which path direction leads to the blob; the adversary exploits
// this by probing the algorithm's planned moves on candidate graphs (path
// orderings x per-node port flips) and emitting one on which the chain
// breaks, so the occupied count never reaches k.
//
// An executable cannot quantify over all algorithms, so the trap reports how
// many rounds it failed to contain (failures() == 0 over a long horizon is
// the reproduced claim; the theorem guarantees a containing candidate exists
// for every deterministic local algorithm, k >= 5).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "util/rng.h"

namespace dyndisp {

class PathTrapAdversary final : public Adversary {
 public:
  PathTrapAdversary(std::size_t n, std::uint64_t seed = 13,
                    std::size_t random_candidates = 16);

  std::string name() const override { return "path-trap(Thm1)"; }
  std::size_t node_count() const override { return n_; }
  bool wants_plan_probe() const override { return true; }
  /// Builds every candidate into retained graphs and swaps the emitted one
  /// into `out`: a warmed-up round allocates nothing adversary-side.
  void next_graph_into(Round r, const Configuration& conf,
                       Graph& out) override;

  /// Rounds in which no probed candidate prevented progress.
  std::size_t failures() const { return failures_; }

 private:
  std::size_t n_;
  Rng rng_;
  std::size_t random_candidates_;
  std::size_t failures_ = 0;

  // Per-round scratch, retained so capacities survive across rounds.
  std::vector<NodeId> empty_;  ///< Empty nodes, ascending.
  std::vector<NodeId> base_;   ///< Occupied nodes, multiplicity first.
  std::vector<NodeId> tail_;   ///< Shuffle buffer for base_'s tail.
  /// The random candidates' orderings and flip masks, alpha entries per
  /// candidate, all drawn before the first probe.
  std::vector<NodeId> random_orders_;
  std::vector<bool> random_flips_;
  std::vector<bool> flip_;     ///< The deterministic candidates' flip mask.
  Graph candidate_, best_;
  Configuration after_;        ///< A candidate's probed outcome.
  std::vector<HalfEdge> port_scratch_;
  std::vector<std::pair<NodeId, NodeId>> edges_;  ///< A candidate's edges.

  /// Builds path-over-occupied (`order`, alpha nodes) + empty star blob at
  /// the far end into `g`; `flip[i]` swaps the two path ports of interior
  /// path node i.
  void build_candidate(const NodeId* order, const std::vector<bool>& flip,
                       std::size_t flip_offset, Graph& g);
};

}  // namespace dyndisp
