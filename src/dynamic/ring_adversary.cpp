#include "dynamic/ring_adversary.h"

#include <algorithm>
#include <stdexcept>

#include "graph/algorithms.h"

namespace dyndisp {

RingAdversary::RingAdversary(std::size_t n, Strategy strategy,
                             std::uint64_t seed)
    : n_(n), strategy_(strategy), rng_(seed) {
  if (n < 3)
    throw std::invalid_argument("ring adversary: a ring needs at least 3 "
                                "nodes, got n=" + std::to_string(n));
}

std::string RingAdversary::name() const {
  switch (strategy_) {
    case Strategy::kRandomEdge:
      return "dynamic-ring(random-edge)";
    case Strategy::kWorstEdge:
      return "dynamic-ring(worst-edge)";
    case Strategy::kFixedRing:
      return "static-ring";
  }
  return "dynamic-ring";
}

Graph RingAdversary::ring_without(std::size_t missing_edge) const {
  // Ring edges are (i, i+1 mod n), indexed by i. missing_edge == n_ keeps
  // the full cycle.
  Graph g(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    if (i == missing_edge) continue;
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n_));
  }
  return g;
}

Graph RingAdversary::next_graph(Round, const Configuration& conf) {
  switch (strategy_) {
    case Strategy::kFixedRing:
      return ring_without(n_);
    case Strategy::kRandomEdge:
      return ring_without(rng_.below(n_));
    case Strategy::kWorstEdge:
      break;
  }
  // Worst edge: for every candidate missing edge, the ring becomes a path;
  // score a candidate by the hop distance from the heaviest multiplicity
  // node to its nearest empty node on that path (robots must travel at
  // least this far before anything new is occupied).
  const auto occ = conf.occupancy();
  NodeId heaviest = kInvalidNode;
  std::size_t heaviest_count = 1;
  for (NodeId v = 0; v < n_; ++v) {
    if (occ[v] > heaviest_count) {
      heaviest_count = occ[v];
      heaviest = v;
    }
  }
  if (heaviest == kInvalidNode) return ring_without(n_);  // dispersed

  std::size_t best_edge = n_;
  std::size_t best_score = 0;
  for (std::size_t missing = 0; missing < n_; ++missing) {
    const Graph g = ring_without(missing);
    const auto dist = bfs_distances(g, heaviest);
    std::size_t nearest_empty = kUnreachable;
    for (NodeId v = 0; v < n_; ++v)
      if (occ[v] == 0) nearest_empty = std::min(nearest_empty, dist[v]);
    if (nearest_empty != kUnreachable && nearest_empty > best_score) {
      best_score = nearest_empty;
      best_edge = missing;
    }
  }
  return ring_without(best_edge);
}

}  // namespace dyndisp
