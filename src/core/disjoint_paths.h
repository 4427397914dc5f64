// Algorithm 3: disjoint root-path computation (Section VI, Definition 5).
//
// LeafNodeSet(ST) holds the tree nodes with at least one EMPTY neighbor in
// G_r. Going through it in increasing name order, the algorithm keeps each
// node's unique tree path to the root iff the path shares no node (other
// than the root itself, which every root path ends at) with a previously
// kept path. Lemma 3 guarantees at least one kept path whenever the
// component has a multiplicity node.
//
// Clarification over the pseudocode (see DESIGN.md #3): when the ROOT has an
// empty neighbor it participates with its trivial zero-length path. From a
// rooted configuration the component is a single multiplicity node and the
// trivial path is the only way any robot can ever leave -- the paper's own
// lower-bound instance (Theorem 3) exercises exactly this case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/component.h"
#include "core/spanning_tree.h"
#include "util/types.h"

namespace dyndisp::core {

/// A root path stored root-first: {root, ..., leaf}. The trivial path of the
/// root is {root} alone.
using RootPath = std::vector<RobotId>;

/// Algorithm 3 into retained flat buffers: the kept paths, root-first, as
/// dense node indices (shared by the component and its tree) in one array
/// plus offsets. compute() refills them, so once the buffers have grown to
/// a component's size it allocates nothing.
class DisjointPaths {
 public:
  /// Keeps the disjoint root paths of `st` over `cg`, in the order they
  /// are kept (increasing by leaf name -- the order Algorithm 4's trimming
  /// step relies on). `max_keep` (0 = unlimited) stops the scan once that
  /// many paths are kept. Because paths are kept in increasing leaf-name
  /// order, the capped result is exactly the uncapped result's prefix --
  /// the planner passes its count(root)-1 trimming bound here so giant
  /// components never materialize paths the trim would discard anyway.
  void compute(const ComponentGraph& cg, const SpanningTree& st,
               std::size_t max_keep = 0);

  /// Sizes the buffers for trees of up to `nodes` nodes.
  void reserve(std::size_t nodes);

  /// Paths kept by the last compute().
  std::size_t size() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  bool empty() const { return size() == 0; }

  /// The j-th kept path, root-first, as dense node indices.
  std::span<const std::uint32_t> operator[](std::size_t j) const {
    return {nodes_.data() + offsets_[j], nodes_.data() + offsets_[j + 1]};
  }

 private:
  /// Per-node walk state, by dense tree index.
  std::vector<char> state_;
  std::vector<std::uint32_t> walked_;  ///< Rejected-walk scratch.
  std::vector<std::uint32_t> nodes_;
  std::vector<std::uint32_t> offsets_;  ///< size() + 1 entries, once computed.
};

/// Names of tree nodes with at least one empty neighbor, ascending.
std::vector<RobotId> leaf_node_set(const ComponentGraph& cg,
                                   const SpanningTree& st);

/// Algorithm 3 (DisjointPaths::compute) with the kept paths as names.
std::vector<RootPath> disjoint_paths(const ComponentGraph& cg,
                                     const SpanningTree& st,
                                     std::size_t max_keep = 0);

/// True if `a` and `b` share no node other than the root (index 0).
bool paths_disjoint(const RootPath& a, const RootPath& b);

}  // namespace dyndisp::core
