// Edge-churn adversary: evolves one graph gradually. Each round it removes
// up to `churn` randomly chosen edges whose removal keeps the graph
// connected, then adds the same number of random absent edges. This models
// slowly changing topologies (as opposed to RandomAdversary's full rewires)
// and exercises the algorithm's per-round reconstruction on inputs with
// temporal locality.
#pragma once

#include <string>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "graph/algorithms.h"
#include "util/rng.h"

namespace dyndisp {

class ChurnAdversary final : public Adversary {
 public:
  /// `initial` must be connected; `churn` edges are replaced per round.
  ChurnAdversary(Graph initial, std::size_t churn, std::uint64_t seed);

  std::string name() const override { return "edge-churn"; }
  std::size_t node_count() const override { return graph_.node_count(); }

  /// Mutates the evolving graph in place (the churn itself is inherently
  /// sequential state evolution), then copy-assigns it into `out` --
  /// recycling out's arrays round over round.
  void next_graph_into(Round r, const Configuration& conf,
                       Graph& out) override;

 private:
  /// Advances the evolving graph by one round of churn.
  void mutate();

  Graph graph_;
  std::size_t churn_;
  Rng rng_;
  /// Edge-list scratch for the removal draws, reused across rounds (the
  /// seed re-materialized the full edge list per removal attempt).
  std::vector<Graph::Edge> edges_scratch_;
  /// The connectivity check's storage, reused by every removal attempt.
  BfsScratch bfs_scratch_;
};

}  // namespace dyndisp
