#include "dynamic/star_star_adversary.h"

#include <cassert>

namespace dyndisp {

StarStarAdversary::StarStarAdversary(std::size_t n, bool shuffle_ports,
                                     std::uint64_t seed)
    : n_(n), shuffle_ports_(shuffle_ports), rng_(seed) {}

void StarStarAdversary::next_graph_into(Round, const Configuration& conf,
                                        Graph& out) {
  assert(conf.node_count() == n_);
  const auto occ = conf.occupancy();
  std::vector<NodeId> occupied, empty;
  for (NodeId v = 0; v < n_; ++v)
    (occ[v] > 0 ? occupied : empty).push_back(v);

  out.reset_assembly(n_);
  if (occupied.empty() || empty.empty()) {
    // Degenerate rounds (no robots alive, or every node occupied): any
    // connected graph satisfies the model; a single star does.
    for (NodeId v = 1; v < n_; ++v) out.add_edge(0, v);
  } else {
    const NodeId center_a = occupied.front();
    const NodeId center_b = empty.front();
    for (const NodeId v : occupied)
      if (v != center_a) out.add_edge(center_a, v);
    for (const NodeId v : empty)
      if (v != center_b) out.add_edge(center_b, v);
    out.add_edge(center_a, center_b);
  }
  if (shuffle_ports_) out.shuffle_ports(rng_);
}

}  // namespace dyndisp
