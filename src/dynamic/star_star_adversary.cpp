#include "dynamic/star_star_adversary.h"

#include <cassert>

namespace dyndisp {

StarStarAdversary::StarStarAdversary(std::size_t n, bool shuffle_ports,
                                     std::uint64_t seed)
    : n_(n), shuffle_ports_(shuffle_ports), rng_(seed) {}

void StarStarAdversary::next_graph_into(Round, const Configuration& conf,
                                        Graph& out) {
  assert(conf.node_count() == n_);
  occupied_.clear();
  empty_.clear();
  for (NodeId v = 0; v < n_; ++v)
    (conf.count_at(v) > 0 ? occupied_ : empty_).push_back(v);

  edges_.clear();
  if (occupied_.empty() || empty_.empty()) {
    // Degenerate rounds (no robots alive, or every node occupied): any
    // connected graph satisfies the model; a single star does.
    for (NodeId v = 1; v < n_; ++v) edges_.emplace_back(0, v);
  } else {
    const NodeId center_a = occupied_.front();
    const NodeId center_b = empty_.front();
    for (const NodeId v : occupied_)
      if (v != center_a) edges_.emplace_back(center_a, v);
    for (const NodeId v : empty_)
      if (v != center_b) edges_.emplace_back(center_b, v);
    edges_.emplace_back(center_a, center_b);
  }
  out.assign_edges(n_, edges_);
  if (shuffle_ports_) out.shuffle_ports(rng_);
}

}  // namespace dyndisp
