// The Theorem 2 impossibility adversary (global communication, no
// 1-neighborhood knowledge).
//
// Round construction, following the paper's proof: form the clique over the
// alpha occupied nodes and a path H over the empty nodes. Because at most k
// robots move and the clique has alpha(alpha-1)/2 > k edges, some clique
// edge {u*, v*} is used by no planned move. Remove it and attach H with the
// two replacement edges {u*, x} and {v*, y} instead, placing each
// replacement at a port slot that no robot on u* / v* plans to use.
//
// Without 1-neighborhood knowledge, a robot's observable inputs (its memory,
// co-located robots, global messages, and its node's degree -- uniformly
// alpha-1 on occupied nodes) are identical across all these candidate
// graphs, so the planned port numbers probed on one candidate are the
// planned port numbers on the emitted graph; no robot ever crosses into H
// and no new node is ever visited. Algorithms *with* 1-neighborhood
// knowledge (e.g., the paper's Algorithm 4) see through the trap; the
// failures() counter records such escapes.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "dynamic/dynamic_graph.h"

namespace dyndisp {

class CliqueTrapAdversary final : public Adversary {
 public:
  explicit CliqueTrapAdversary(std::size_t n);

  std::string name() const override { return "clique-trap(Thm2)"; }
  std::size_t node_count() const override { return n_; }
  bool wants_plan_probe() const override { return true; }
  /// Builds the probe graph and the emitted graph into retained graphs and
  /// swaps the emitted one into `out`.
  void next_graph_into(Round r, const Configuration& conf,
                       Graph& out) override;

  /// Rounds where the trap could not prevent a new node from being visited.
  std::size_t failures() const { return failures_; }

  /// Rounds where no unused clique edge existed (alpha too small vs k);
  /// the trap needs alpha(alpha-1)/2 > k as in the paper's proof.
  std::size_t degenerate_rounds() const { return degenerate_; }

 private:
  std::size_t n_;
  std::size_t failures_ = 0;
  std::size_t degenerate_ = 0;

  // Per-round scratch, retained so capacities survive across rounds.
  std::vector<NodeId> occupied_, empty_;  ///< Both ascending.
  /// Distinct (node, port) pairs the probed robots plan to use, sorted.
  std::vector<std::pair<NodeId, Port>> planned_;
  std::vector<std::size_t> planned_count_;  ///< Distinct ports per node.
  std::vector<NodeId> by_free_;   ///< occupied_, fewest planned ports first.
  std::vector<NodeId> targets_;   ///< add_constrained's port order.
  /// The edge list of the graph being built, in port order.
  std::vector<std::pair<NodeId, NodeId>> edges_;
  Graph probe_graph_, emitted_;
  Configuration after_;           ///< The audit probe's outcome.

  /// Clique over occupied_ minus {occupied_[0], occupied_[1]}, a path over
  /// empty_, and the two replacement edges, into `g`.
  void build_probe_graph(Graph& g);

  /// The first port slot in [1, degree] that no robot on `v` plans to use,
  /// or kInvalidPort.
  Port free_slot(NodeId v, std::size_t degree) const;
};

}  // namespace dyndisp
