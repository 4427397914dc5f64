#include "dynamic/clique_trap_adversary.h"

#include <algorithm>
#include <cassert>

namespace dyndisp {

CliqueTrapAdversary::CliqueTrapAdversary(std::size_t n) : n_(n) {}

void CliqueTrapAdversary::build_probe_graph(Graph& g) {
  const std::size_t alpha = occupied_.size();
  edges_.clear();
  // Clique over occupied nodes minus the pair (occupied[0], occupied[1]).
  for (std::size_t i = 0; i < alpha; ++i)
    for (std::size_t j = i + 1; j < alpha; ++j)
      if (!(i == 0 && j == 1)) edges_.emplace_back(occupied_[i], occupied_[j]);
  // Path H over the empty nodes.
  for (std::size_t i = 1; i < empty_.size(); ++i)
    edges_.emplace_back(empty_[i - 1], empty_[i]);
  // The two replacement edges standing in for the removed clique edge.
  if (!empty_.empty() && alpha >= 2) {
    edges_.emplace_back(occupied_[0], empty_.front());
    edges_.emplace_back(occupied_[1], empty_.back());
  } else if (!empty_.empty()) {
    edges_.emplace_back(occupied_[0], empty_.front());
  }
  g.assign_edges(n_, edges_);
}

Port CliqueTrapAdversary::free_slot(NodeId v, std::size_t degree) const {
  auto it = std::lower_bound(planned_.begin(), planned_.end(),
                             std::pair<NodeId, Port>{v, 0});
  // planned_ holds v's ports ascending and distinct: the first slot that is
  // not the next of them is free.
  for (Port s = 1; s <= degree; ++s) {
    if (it == planned_.end() || it->first != v || it->second != s) return s;
    ++it;
  }
  return kInvalidPort;
}

void CliqueTrapAdversary::next_graph_into(Round, const Configuration& conf,
                                          Graph& out) {
  assert(conf.node_count() == n_);
  occupied_.clear();
  empty_.clear();
  for (NodeId v = 0; v < n_; ++v)
    (conf.count_at(v) == 0 ? empty_ : occupied_).push_back(v);

  if (occupied_.empty() || conf.multiplicity_count() == 0 || empty_.empty() ||
      occupied_.size() < 3) {
    // Dispersed, degenerate, or too few occupied nodes for a clique trap.
    if (conf.multiplicity_count() != 0) ++degenerate_;
    edges_.clear();
    for (NodeId v = 1; v < n_; ++v) edges_.emplace_back(0, v);
    out.assign_edges(n_, edges_);
    return;
  }

  const std::size_t alpha = occupied_.size();
  build_probe_graph(probe_graph_);
  if (!probe_) {
    std::swap(out, probe_graph_);
    return;
  }

  const MovePlan plan = probe_(probe_graph_);

  // Which ports does each occupied node's robot population plan to use?
  // (A robot's observable inputs are identical on every candidate below, so
  // the same deterministic algorithm emits the same port numbers on each.)
  planned_.clear();
  for (RobotId id = 1; id <= conf.robot_count(); ++id) {
    if (!conf.alive(id)) continue;
    const Port p = plan[id - 1];
    if (p != kInvalidPort) planned_.emplace_back(conf.position(id), p);
  }
  std::sort(planned_.begin(), planned_.end());
  planned_.erase(std::unique(planned_.begin(), planned_.end()),
                 planned_.end());
  planned_count_.assign(n_, 0);
  for (const auto& [v, p] : planned_) ++planned_count_[v];

  // Pick u*, v*: the two occupied nodes with the most free port slots.
  // Slots run over [1, alpha-1] (every occupied node has degree alpha-1).
  const std::size_t degree = alpha - 1;
  // Ties keep node order: a stable sort of the ascending occupied_ list,
  // without its buffer.
  by_free_ = occupied_;
  std::sort(by_free_.begin(), by_free_.end(), [&](NodeId a, NodeId b) {
    const std::size_t fa = planned_count_[a], fb = planned_count_[b];
    return fa != fb ? fa < fb : a < b;
  });
  const NodeId u_star = by_free_[0];
  const NodeId v_star = by_free_[1];
  const Port su = free_slot(u_star, degree);
  const Port sv = free_slot(v_star, degree);
  if (su == kInvalidPort || sv == kInvalidPort) {
    // Every slot at the two freest nodes is in use: alpha is too small
    // relative to k for the paper's counting argument. Emit the probe graph.
    ++degenerate_;
    std::swap(out, probe_graph_);
    return;
  }

  // Build the emitted graph: clique minus {u*, v*}, H, and the two
  // replacement edges placed exactly at the free slots su / sv.
  edges_.clear();
  for (std::size_t i = 1; i < empty_.size(); ++i)
    edges_.emplace_back(empty_[i - 1], empty_[i]);
  for (std::size_t i = 0; i < alpha; ++i) {
    for (std::size_t j = i + 1; j < alpha; ++j) {
      const NodeId a = occupied_[i], b = occupied_[j];
      if (a == u_star || a == v_star || b == u_star || b == v_star) continue;
      edges_.emplace_back(a, b);
    }
  }
  auto add_constrained = [&](NodeId center, NodeId redirect_to, Port slot) {
    targets_.clear();
    for (const NodeId w : occupied_)
      if (w != center && w != u_star && w != v_star) targets_.push_back(w);
    targets_.insert(targets_.begin() + (slot - 1), redirect_to);
    for (const NodeId t : targets_) edges_.emplace_back(center, t);
  };
  add_constrained(u_star, empty_.front(), su);
  add_constrained(v_star, empty_.back(), sv);
  Graph& g = emitted_;
  g.assign_edges(n_, edges_);

  // Audit: re-probe on the graph actually emitted. For algorithms without
  // 1-neighborhood knowledge this equals `plan` (identical views); for
  // algorithms WITH it (e.g., Algorithm 4) the re-probe reveals the escape,
  // which failures() then records.
  apply_plan(g, conf, probe_(g), after_);
  if (after_.occupied_count() > alpha) ++failures_;
  std::swap(out, g);
}

}  // namespace dyndisp
