#include "core/spanning_tree.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace dyndisp::core {

const TreeNode* SpanningTree::find(RobotId name) const {
  const auto it = std::lower_bound(
      nodes_.begin(), nodes_.end(), name,
      [](const TreeNode& n, RobotId x) { return n.name < x; });
  return (it != nodes_.end() && it->name == name) ? &*it : nullptr;
}

std::vector<RobotId> SpanningTree::root_path(RobotId name) const {
  const TreeNode* node = find(name);
  assert(node != nullptr && "root_path of a node outside the tree");
  // depth hops to the root: size the path once and fill it back-to-front.
  std::vector<RobotId> path(node->depth + 1);
  for (std::size_t i = node->depth + 1; i-- > 0;) {
    path[i] = node->name;
    if (node->parent != kNoRobot)
      node = &nodes_[parent_idx_[static_cast<std::size_t>(node - nodes_.data())]];
  }
  assert(path.front() == root_);
  return path;
}

void SpanningTree::clear() {
  root_ = kNoRobot;
  nodes_.clear();
  parent_idx_.clear();
  children_.clear();
}

void SpanningTree::reserve(std::size_t nodes) {
  nodes_.reserve(nodes);
  parent_idx_.reserve(nodes);
  children_.reserve(nodes);
}

void TreeBuilder::reserve(std::size_t nodes, std::size_t edges) {
  present_.reserve(nodes);
  stack_.reserve(edges);
  order_.reserve(nodes);
}

// Both builders work on dense indices: cg.nodes() is ascending by name and
// cg.edge_targets() pre-resolves every edge's node index, so a tree node is
// written at its component node's index (dense order IS ascending-name
// order) and its parent index is the discovering node's -- no sort and no
// name lookups.
std::uint32_t TreeBuilder::begin(const ComponentGraph& cg, SpanningTree& out) {
  const RobotId root = cg.root_name();
  assert(root != kNoRobot &&
         "spanning trees are built only for components with a multiplicity");
  out.root_ = root;
  out.nodes_.assign(cg.size(), TreeNode{});
  out.parent_idx_.assign(cg.size(), 0);
  out.children_.clear();
  present_.assign(cg.size(), 0);
  order_.clear();

  const ComponentNode* root_cn = cg.find(root);
  assert(root_cn != nullptr);
  const auto root_idx = static_cast<std::uint32_t>(root_cn - cg.nodes().data());
  out.nodes_[root_idx].name = root;
  present_[root_idx] = 1;
  return root_idx;
}

void TreeBuilder::attach(const ComponentGraph& cg, SpanningTree& out,
                         std::uint32_t idx, std::uint32_t from_idx,
                         Port port_at_from) {
  present_[idx] = 1;
  const ComponentNode& cn = cg.nodes()[idx];
  TreeNode& node = out.nodes_[idx];
  node.name = cn.name;
  node.parent = out.nodes_[from_idx].name;
  node.port_from_parent = port_at_from;
  // The port at this node back to the parent: find the edge to `from`.
  for (const auto& [port, nb] : cg.edges(cn)) {
    if (nb == node.parent) {
      node.port_to_parent = port;
      break;
    }
  }
  assert(node.port_to_parent != kInvalidPort);
  node.depth = out.nodes_[from_idx].depth + 1;
  out.parent_idx_[idx] = from_idx;
  order_.push_back(idx);
}

void TreeBuilder::finish(const ComponentGraph& cg, SpanningTree& out) {
  assert(std::count(present_.begin(), present_.end(), char{1}) ==
             static_cast<std::ptrdiff_t>(cg.size()) &&
         "spanning tree must cover the whole (connected) component");
  (void)cg;
  // Count each node's children, turn the counts into ranges, then place
  // the children in discovery order.
  std::vector<TreeNode>& nodes = out.nodes_;
  for (const std::uint32_t v : order_) ++nodes[out.parent_idx_[v]].children_end;
  std::uint32_t offset = 0;
  for (TreeNode& node : nodes) {
    const std::uint32_t count = node.children_end;
    node.children_begin = node.children_end = offset;
    offset += count;
  }
  out.children_.resize(offset);
  for (const std::uint32_t v : order_) {
    TreeNode& parent = nodes[out.parent_idx_[v]];
    out.children_[parent.children_end++] = {nodes[v].port_from_parent,
                                            nodes[v].name};
  }
}

void TreeBuilder::build_dfs(const ComponentGraph& cg, SpanningTree& out) {
  // Iterative DFS per the pseudocode: push the neighbors in decreasing port
  // order so the smallest port is explored first; connect each node to the
  // node from which it was (first) discovered.
  const auto push_edges = [&](std::uint32_t cn_idx) {
    const ComponentNode& cn = cg.nodes()[cn_idx];
    const std::span<const ComponentGraph::Edge> edges = cg.edges(cn);
    const std::span<const std::uint32_t> targets = cg.edge_targets(cn);
    for (std::size_t e = edges.size(); e-- > 0;) {
      const std::uint32_t nb_idx = targets[e];
      assert(nb_idx != ComponentGraph::kMissingTarget &&
             "component edge points outside the component");
      if (nb_idx == ComponentGraph::kMissingTarget) continue;
      if (!present_[nb_idx])
        stack_.push_back(PendingVisit{nb_idx, cn_idx, edges[e].first});
    }
  };
  stack_.clear();
  push_edges(begin(cg, out));
  while (!stack_.empty()) {
    const PendingVisit visit = stack_.back();
    stack_.pop_back();
    if (present_[visit.idx]) continue;  // already explored
    attach(cg, out, visit.idx, visit.from_idx, visit.port_at_from);
    push_edges(visit.idx);
  }
  finish(cg, out);
}

void TreeBuilder::build_bfs(const ComponentGraph& cg, SpanningTree& out) {
  // order_ doubles as the FIFO: the root first, then every node in the
  // order it was discovered.
  const std::uint32_t root_idx = begin(cg, out);
  for (std::size_t head = 0;; ++head) {
    const std::uint32_t from_idx = head == 0 ? root_idx : order_[head - 1];
    const ComponentNode& cn = cg.nodes()[from_idx];
    const std::span<const ComponentGraph::Edge> edges = cg.edges(cn);
    const std::span<const std::uint32_t> targets = cg.edge_targets(cn);
    for (std::size_t e = 0; e < edges.size(); ++e) {  // ascending by port
      const std::uint32_t nb_idx = targets[e];
      assert(nb_idx != ComponentGraph::kMissingTarget);
      if (nb_idx == ComponentGraph::kMissingTarget || present_[nb_idx])
        continue;
      attach(cg, out, nb_idx, from_idx, edges[e].first);
    }
    if (head == order_.size()) break;
  }
  finish(cg, out);
}

SpanningTree build_spanning_tree(const ComponentGraph& cg) {
  SpanningTree st;
  TreeBuilder().build_dfs(cg, st);
  return st;
}

SpanningTree build_spanning_tree_bfs(const ComponentGraph& cg) {
  SpanningTree st;
  TreeBuilder().build_bfs(cg, st);
  return st;
}

}  // namespace dyndisp::core
