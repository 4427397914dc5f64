// The Omega(k) lower-bound adversary of Theorem 3 (Fig. 2).
//
// Each round, let A_r be the currently occupied nodes and B_r the empty
// ones. The adversary emits the dynamic tree T_{A_r} + T_{B_r}: a star over
// A_r, a star over B_r, and one edge joining the two star centers. The only
// empty node adjacent to any occupied node is the center of T_{B_r}, so at
// most ONE new node can be reached per round -- by any algorithm, with any
// amount of memory -- while the tree stays connected with diameter <= 3.
// Dispersing k robots from a rooted configuration therefore needs >= k-1
// rounds.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "util/rng.h"

namespace dyndisp {

class StarStarAdversary final : public Adversary {
 public:
  /// `shuffle_ports` additionally randomizes port labels each round (the
  /// bound is label-independent; the option exercises that).
  explicit StarStarAdversary(std::size_t n, bool shuffle_ports = false,
                             std::uint64_t seed = 7);

  std::string name() const override { return "star-star-lower-bound"; }
  std::size_t node_count() const override { return n_; }
  void next_graph_into(Round r, const Configuration& conf,
                       Graph& out) override;

 private:
  std::size_t n_;
  bool shuffle_ports_;
  Rng rng_;
  // Per-round scratch, retained so capacities survive across rounds.
  std::vector<NodeId> occupied_, empty_;  ///< Both ascending.
  std::vector<std::pair<NodeId, NodeId>> edges_;  ///< The two stars' edges.
};

}  // namespace dyndisp
