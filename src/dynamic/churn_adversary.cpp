#include "dynamic/churn_adversary.h"

#include <cassert>
#include <utility>

#include "graph/algorithms.h"

namespace dyndisp {

ChurnAdversary::ChurnAdversary(Graph initial, std::size_t churn,
                               std::uint64_t seed)
    : graph_(std::move(initial)), churn_(churn), rng_(seed) {
  assert(is_connected(graph_));
}

void ChurnAdversary::mutate() {
  const std::size_t n = graph_.node_count();
  std::size_t removed = 0;
  // Remove up to churn_ edges, keeping connectivity (retry a few times per
  // removal; bridges are skipped). The edge list is re-materialized per
  // removal (edges shift as the graph changes) but into recycled storage --
  // the draw sequence is identical to a fresh edges() call.
  for (std::size_t i = 0; i < churn_; ++i) {
    graph_.edges_into(edges_scratch_);
    const auto& edges = edges_scratch_;
    if (edges.empty()) break;
    bool done = false;
    for (std::size_t attempt = 0; attempt < 8 && !done; ++attempt) {
      const auto& e = edges[rng_.below(edges.size())];
      graph_.remove_edge(e.u, e.v);
      if (is_connected(graph_, bfs_scratch_)) {
        done = true;
        ++removed;
      } else {
        graph_.add_edge(e.u, e.v);  // was a bridge; retry another edge
      }
    }
  }
  // Add back the same number of fresh edges.
  std::size_t added = 0;
  std::size_t attempts = 0;
  while (added < removed && attempts++ < 64 * (removed + 1)) {
    const NodeId u = static_cast<NodeId>(rng_.below(n));
    const NodeId v = static_cast<NodeId>(rng_.below(n));
    if (u == v || graph_.has_edge(u, v)) continue;
    graph_.add_edge(u, v);
    ++added;
  }
}

void ChurnAdversary::next_graph_into(Round, const Configuration&, Graph& out) {
  mutate();
  out = graph_;
}

}  // namespace dyndisp
