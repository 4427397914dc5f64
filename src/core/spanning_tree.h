// Algorithm 2: component spanning tree (Section V, Definition 4).
//
// Given a connected component with a multiplicity node, the tree is rooted
// at the smallest-name multiplicity node and grown by a deterministic DFS
// that explores ports in increasing order (the pseudocode pushes neighbors
// in DECREASING port order so the smallest port is popped first). Every
// robot in the component computes the identical tree (Lemma 2) because the
// construction is a deterministic function of the shared component graph.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/component.h"
#include "util/types.h"

namespace dyndisp::core {

struct TreeNode {
  RobotId name = kNoRobot;       ///< Node name (smallest robot ID on it).
  RobotId parent = kNoRobot;     ///< Parent name; kNoRobot at the root.
  Port port_to_parent = kInvalidPort;   ///< Port at this node toward parent.
  Port port_from_parent = kInvalidPort; ///< Port at the parent toward here.
  std::size_t depth = 0;         ///< Hops from the root.
  /// Range of this node's children in SpanningTree::children.
  std::uint32_t children_begin = 0, children_end = 0;
};

/// A component spanning tree in CSR form. Its nodes() are index-aligned
/// with the component it was built from: nodes()[i] is the tree node of
/// the component's nodes()[i] (both ascend by name). Children live in one
/// flat array the records index into; clear() keeps capacity, so a retained
/// tree is rebuilt without allocating.
class SpanningTree {
 public:
  /// (port at this node, child name).
  using Child = std::pair<Port, RobotId>;

  RobotId root() const { return root_; }
  std::size_t size() const { return nodes_.size(); }

  /// Nodes ascending by name.
  const std::vector<TreeNode>& nodes() const { return nodes_; }

  /// Children of `node` as (port at the node, child name), in discovery
  /// order.
  std::span<const Child> children(const TreeNode& node) const {
    return {children_.data() + node.children_begin,
            children_.data() + node.children_end};
  }

  /// nodes() index of nodes()[i]'s parent; meaningful only when
  /// nodes()[i].parent != kNoRobot. Lets path walkers climb the tree on
  /// dense indices without per-hop name lookups.
  std::uint32_t parent_index(std::size_t i) const { return parent_idx_[i]; }

  /// Lookup by name; nullptr when absent.
  const TreeNode* find(RobotId name) const;

  /// The unique tree path from the root to `name`, inclusive:
  /// RootPath_r(name) of Section VI (stored root-first).
  std::vector<RobotId> root_path(RobotId name) const;

  /// Empties the tree, keeping capacity.
  void clear();
  /// Sizes the buffers for up to `nodes` nodes, growing their capacity
  /// geometrically (util/grow.h).
  void reserve(std::size_t nodes);

 private:
  friend class TreeBuilder;

  RobotId root_ = kNoRobot;
  std::vector<TreeNode> nodes_;  // index-aligned with the component
  /// nodes_ index of each node's parent (undefined at the root), so
  /// root_path and Algorithm 3 walk indices instead of re-finding names.
  std::vector<std::uint32_t> parent_idx_;
  std::vector<Child> children_;
};

/// Algorithm 2 with its traversal scratch retained across components: once
/// the buffers have grown to a component's size, building a tree into a
/// retained SpanningTree allocates nothing. Both builders require
/// cg.has_multiplicity() (otherwise the component is already dispersed and
/// no tree is built -- callers must check).
class TreeBuilder {
 public:
  /// Algorithm 2: the DFS tree of `cg`, written into `out`.
  void build_dfs(const ComponentGraph& cg, SpanningTree& out);

  /// The BFS alternative the paper mentions ("a breadth-first search
  /// approach can also be used"): same root choice, level-order exploration
  /// taking smallest ports first. Produces trees of minimum depth, which
  /// shortens root paths (and hence per-round slide lengths) at identical
  /// asymptotics.
  void build_bfs(const ComponentGraph& cg, SpanningTree& out);

  /// Sizes the scratch for components of up to `nodes` nodes and `edges`
  /// edges, growing its capacity geometrically (util/grow.h).
  void reserve(std::size_t nodes, std::size_t edges);

 private:
  /// Starts `out` as the tree of `cg` holding only its root; returns the
  /// root's dense index.
  std::uint32_t begin(const ComponentGraph& cg, SpanningTree& out);
  /// Attaches node `idx` below `from_idx`, reached via `port_at_from`.
  void attach(const ComponentGraph& cg, SpanningTree& out, std::uint32_t idx,
              std::uint32_t from_idx, Port port_at_from);
  /// Lays the children out in discovery order (CSR) once the walk is done.
  void finish(const ComponentGraph& cg, SpanningTree& out);

  struct PendingVisit {
    std::uint32_t idx;       // dense index of the node to visit
    std::uint32_t from_idx;  // dense index of the discovering node
    Port port_at_from;       // port of `from` leading to the node
  };

  std::vector<char> present_;
  std::vector<PendingVisit> stack_;
  /// Discovered nodes in discovery order (the root excluded); doubles as
  /// the BFS queue.
  std::vector<std::uint32_t> order_;
};

/// Algorithm 2. Requires cg.has_multiplicity().
SpanningTree build_spanning_tree(const ComponentGraph& cg);

/// The BFS variant of TreeBuilder::build_bfs. Requires cg.has_multiplicity().
SpanningTree build_spanning_tree_bfs(const ComponentGraph& cg);

}  // namespace dyndisp::core
