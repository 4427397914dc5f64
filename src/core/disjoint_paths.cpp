#include "core/disjoint_paths.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace dyndisp::core {

std::vector<RobotId> leaf_node_set(const ComponentGraph& cg,
                                   const SpanningTree& st) {
  std::vector<RobotId> leaves;
  // The tree is index-aligned with its component: no lookups.
  const std::vector<ComponentNode>& cn = cg.nodes();
  const std::vector<TreeNode>& tn = st.nodes();  // ascending by name
  for (std::size_t i = 0; i < tn.size(); ++i) {
    assert(cn[i].name == tn[i].name);
    if (cn[i].has_empty_neighbor()) leaves.push_back(tn[i].name);
  }
  return leaves;
}

bool paths_disjoint(const RootPath& a, const RootPath& b) {
  assert(!a.empty() && !b.empty() && a.front() == b.front());
  std::set<RobotId> nodes_a(a.begin() + 1, a.end());
  return std::none_of(b.begin() + 1, b.end(), [&](RobotId name) {
    return nodes_a.count(name) > 0;
  });
}

void DisjointPaths::reserve(std::size_t nodes) {
  state_.reserve(nodes);
  walked_.reserve(nodes);
  // Kept paths share only the root: their lengths sum to below 2 * nodes.
  nodes_.reserve(2 * nodes);
  offsets_.reserve(nodes + 1);
}

void DisjointPaths::compute(const ComponentGraph& cg, const SpanningTree& st,
                            std::size_t max_keep) {
  nodes_.clear();
  offsets_.assign(1, 0);
  const std::vector<TreeNode>& tn = st.nodes();  // ascending by name
  const std::vector<ComponentNode>& cn = cg.nodes();

  // Per-node walk state, by dense tree index. kClaimed marks non-root nodes
  // on a kept path. kOverlaps memoizes rejection: every node walked during a
  // rejected candidate's upward walk has a claimed ancestor (root paths are
  // unique in a tree, so any later candidate walking through it overlaps
  // too, against a claimed set that only grows). Without the memo a
  // rejection costs the distance to the claimed forest -- which on the deep
  // DFS trees of giant random components is O(depth) per leaf, quadratic
  // over the round (the k=10^5 profile put a quarter of the whole run
  // here). With it every node is walked at most once, so one call is
  // O(component + kept path lengths).
  enum : char { kUnwalked = 0, kClaimed = 1, kOverlaps = 2 };
  state_.assign(tn.size(), kUnwalked);

  // LeafNodeSet membership comes from the component node's degree; the
  // tree is index-aligned with its component, so node i of one is node i
  // of the other.
  for (std::size_t i = 0; i < tn.size(); ++i) {
    // A node the tree never reached (only a hand-built, one-sided edge list
    // leaves one) is no tree node.
    if (tn[i].name != cn[i].name) continue;
    if (!cn[i].has_empty_neighbor()) continue;  // not in LeafNodeSet

    bool overlaps = false;
    walked_.clear();
    for (std::size_t j = i; tn[j].parent != kNoRobot;
         j = st.parent_index(j)) {
      if (state_[j] != kUnwalked) {
        overlaps = true;
        break;
      }
      walked_.push_back(static_cast<std::uint32_t>(j));
    }
    if (overlaps) {
      // Everything walked sits below a claimed node; memoize the verdict.
      for (const std::uint32_t j : walked_) state_[j] = kOverlaps;
      continue;
    }

    // Keep: write the path root-first and claim its non-root nodes.
    const std::size_t first = nodes_.size();
    nodes_.resize(first + tn[i].depth + 1);
    std::size_t j = i;
    for (std::size_t d = tn[i].depth + 1; d-- > 0;) {
      nodes_[first + d] = static_cast<std::uint32_t>(j);
      if (tn[j].parent != kNoRobot) {
        state_[j] = kClaimed;
        j = st.parent_index(j);
      }
    }
    assert(tn[nodes_[first]].name == st.root());
    offsets_.push_back(static_cast<std::uint32_t>(nodes_.size()));
    if (max_keep != 0 && size() >= max_keep) break;
  }
}

std::vector<RootPath> disjoint_paths(const ComponentGraph& cg,
                                     const SpanningTree& st,
                                     std::size_t max_keep) {
  DisjointPaths paths;
  paths.compute(cg, st, max_keep);
  std::vector<RootPath> kept(paths.size());
  for (std::size_t j = 0; j < paths.size(); ++j) {
    kept[j].reserve(paths[j].size());
    for (const std::uint32_t idx : paths[j])
      kept[j].push_back(st.nodes()[idx].name);
  }
  return kept;
}

}  // namespace dyndisp::core
