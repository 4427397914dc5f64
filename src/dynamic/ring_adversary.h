// Dynamic ring adversary -- the setting of the only prior dynamic-graph
// dispersion work the paper cites (Agarwalla et al., ICDCN 2018). A
// 1-interval connected dynamic ring is a cycle from which the adversary may
// remove at most one edge per round (removing more would disconnect it).
// This adversary removes the worst edge it can: by default the one whose
// removal maximizes the distance from the largest multiplicity node to the
// nearest empty node, forcing robots the long way around.
//
// Ring edge e joins nodes e and e+1 (mod n). The worst edge has a closed
// form, scored in one O(n) scan instead of a BFS per candidate cut:
//   * h is the heaviest node: the first (lowest-id) node whose robot count
//     strictly exceeds every earlier one, starting above 1. The full ring
//     is kept when no node holds two robots or no node is empty.
//   * a and b are the clockwise (increasing id) and counter-clockwise hop
//     distances from h to its nearest empty node.
//   * Cutting an edge on the clockwise arc h .. h+a-1 leaves only the
//     counter-clockwise route, so it scores b; cutting one on the
//     counter-clockwise arc h-b .. h-1 scores a; any other cut leaves both
//     routes and scores min(a, b).
//   * The scan over e = 0 .. n-1 keeps the first strict maximum: when
//     a == b every cut scores the same and edge 0 wins; otherwise only the
//     arc toward the nearer empty node scores max(a, b), and its lowest
//     edge id wins -- edge 0 when that arc wraps past it.
// This picks exactly the edge a brute-force "cut each edge, BFS from h"
// scorer picks; the test suite keeps that scorer as its reference.
//
// Every strategy emits in place through next_graph_into with ports in
// add_edge order over ascending edge ids, so a warmed-up Graph is refilled
// without allocating.
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
  void next_graph_into(Round r, const Configuration& conf,
                       Graph& out) override;

 private:
  std::size_t n_;
  Strategy strategy_;
  Rng rng_;
};

}  // namespace dyndisp
