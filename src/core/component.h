// Algorithm 1: connected-component construction from information packets
// (Section V, Definition 2/3).
//
// The component graph CG_r spans the occupied nodes of G_r and the edges of
// G_r between them. Robots cannot name anonymous nodes, so every node of the
// component is identified by the smallest robot ID positioned on it
// (Observation 1). Each robot rebuilds, from the broadcast packets, the
// connected component containing its own node; Lemma 1 (robots in the same
// component build identical structures) is a pure consequence of this code
// being deterministic on the shared packet set -- and is verified by tests.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "sim/packet_arena.h"
#include "util/types.h"

namespace dyndisp::core {

/// One occupied node, named by its smallest robot (Obs. 1).
struct ComponentNode {
  RobotId name = kNoRobot;       ///< Smallest robot ID on the node.
  std::size_t count = 0;         ///< Robots on the node.
  std::size_t degree = 0;        ///< Degree of the node in G_r.
  std::vector<RobotId> robots;   ///< All robot IDs here, ascending.
  /// Edges to occupied neighbors: (port at this node, neighbor name),
  /// ascending by port.
  std::vector<std::pair<Port, RobotId>> edges;

  /// True when the node has at least one empty (unoccupied) neighbor --
  /// the LeafNodeSet membership test of Algorithm 3.
  bool has_empty_neighbor() const { return edges.size() < degree; }
};

/// A connected component CG_r^phi of the component graph.
class ComponentGraph {
 public:
  /// Nodes ascending by name.
  const std::vector<ComponentNode>& nodes() const { return nodes_; }
  std::size_t size() const { return nodes_.size(); }

  /// Node lookup by name; nullptr when absent.
  const ComponentNode* find(RobotId name) const;
  bool contains(RobotId name) const { return find(name) != nullptr; }

  /// Total robots in the component.
  std::size_t robot_count() const;

  /// True if some node hosts two or more robots.
  bool has_multiplicity() const;

  /// The spanning-tree root choice of Algorithm 2: the smallest-name
  /// multiplicity node; kNoRobot when the component has no multiplicity.
  RobotId root_name() const;

  /// Sentinel for an edge whose named neighbor is not a node of this
  /// component (only hand-built or Byzantine-degenerate graphs produce one).
  static constexpr std::uint32_t kMissingTarget = 0xffffffffu;

  /// Dense nodes() indices of nodes()[node_idx].edges' targets, aligned to
  /// that edges vector: edge_targets(i)[e] is the index of the node named
  /// nodes()[i].edges[e].second (or kMissingTarget). Resolved once at seal
  /// time so the per-edge consumers (Algorithm 2's builders) walk indices
  /// instead of binary-searching names.
  const std::uint32_t* edge_targets(std::size_t node_idx) const {
    return edge_targets_.data() + edge_offsets_[node_idx];
  }

  /// Used by the builder; nodes must be inserted in any order, then sealed.
  void add_node(ComponentNode node);
  void seal();

  /// Builder fast path: nodes were added already ascending by name, and
  /// `edge_targets` holds every node's edge target indices pre-resolved and
  /// concatenated in node order -- skips seal()'s sort and name resolution.
  void seal_presorted(std::vector<std::uint32_t> edge_targets);

 private:
  std::vector<ComponentNode> nodes_;  // kept ascending by name after seal()
  /// CSR layout of the resolved edge targets: node i's targets live at
  /// [edge_offsets_[i], edge_offsets_[i + 1]).
  std::vector<std::uint32_t> edge_offsets_;
  std::vector<std::uint32_t> edge_targets_;
};

/// Algorithm 1: builds the connected component containing the node named
/// `start_name` from the full packet set. `packets` must contain one packet
/// per occupied node (as delivered under global communication) and must
/// include neighbor information (1-neighborhood knowledge).
ComponentGraph build_component(const PacketSet& packets, RobotId start_name);

/// Builds every connected component of the packet graph, ascending by the
/// smallest node name they contain. (Simulator-side convenience; each robot
/// only ever needs its own component.)
std::vector<ComponentGraph> build_all_components(const PacketSet& packets);

/// Reusable Algorithm 1 builder over ONE packet set: indexes the senders
/// once and shares the index (and the flood-fill scratch) across every
/// build() call. StructureCache's delta rebuild constructs one component
/// per dirty seed; going through build_component re-indexed all k packets
/// per seed, making a delta round O(dirty_components * k). Seeds handed to
/// one builder must lie in distinct components (the flood-fill's visited
/// flags persist, exactly like build_components_split's seed loop);
/// `packets` must outlive the builder.
class ComponentBuilder {
 public:
  explicit ComponentBuilder(const PacketSet& packets);
  ~ComponentBuilder();
  ComponentBuilder(const ComponentBuilder&) = delete;
  ComponentBuilder& operator=(const ComponentBuilder&) = delete;

  /// The component containing `start_name`; identical to
  /// build_component(packets, start_name) under the seed contract above.
  ComponentGraph component_at(RobotId start_name);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// build_all_components with the dominant degenerate case split out: when
/// `trivial` is non-null, single-robot senders whose packets list no occupied
/// neighbor are appended to it (in packet order, hence ascending) instead of
/// being materialized as one-node ComponentGraphs, and the return value holds
/// only the remaining components. Such components never carry multiplicity and
/// contribute nothing to a plan, but at k >= 10^5 on sparse random graphs they
/// are ~10^4 per round -- the compact form skips their node/robots/edges
/// allocations. The union of both outputs is exactly build_all_components;
/// passing nullptr IS build_all_components.
std::vector<ComponentGraph> build_components_split(
    const PacketSet& packets, std::vector<RobotId>* trivial);

}  // namespace dyndisp::core
