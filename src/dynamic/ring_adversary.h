// Dynamic ring adversary -- the setting of the only prior dynamic-graph
// dispersion work the paper cites (Agarwalla et al., ICDCN 2018). A
// 1-interval connected dynamic ring is a cycle from which the adversary may
// remove at most one edge per round (removing more would disconnect it).
// This adversary removes the worst edge it can: by default the one whose
// removal maximizes the distance from the largest multiplicity node to the
// nearest empty node, forcing robots the long way around.
#pragma once

#include <string>

#include "dynamic/dynamic_graph.h"
#include "util/rng.h"

namespace dyndisp {

class RingAdversary final : public Adversary {
 public:
  enum class Strategy {
    kRandomEdge,   ///< Remove a uniformly random edge each round.
    kWorstEdge,    ///< Maximize multiplicity-to-empty distance.
    kFixedRing,    ///< Never remove an edge (static ring control).
  };

  /// Throws std::invalid_argument when n < 3 (no ring exists).
  RingAdversary(std::size_t n, Strategy strategy, std::uint64_t seed = 3);

  std::string name() const override;
  std::size_t node_count() const override { return n_; }
  Graph next_graph(Round r, const Configuration& conf) override;

 private:
  std::size_t n_;
  Strategy strategy_;
  Rng rng_;

  Graph ring_without(std::size_t missing_edge) const;  // n_ = no removal
};

}  // namespace dyndisp
