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
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/packet_arena.h"
#include "util/types.h"

namespace dyndisp::core {

/// One occupied node, named by its smallest robot (Obs. 1). A plain record:
/// its robots and edges live in the owning ComponentGraph's flat arrays,
/// addressed by the two ranges below (ComponentGraph::robots/edges).
struct ComponentNode {
  RobotId name = kNoRobot;       ///< Smallest robot ID on the node.
  std::size_t count = 0;         ///< Robots on the node.
  std::size_t degree = 0;        ///< Degree of the node in G_r.
  std::uint32_t robots_begin = 0, robots_end = 0;  ///< Robot range.
  std::uint32_t edges_begin = 0, edges_end = 0;    ///< Edge range.

  /// Edges to occupied neighbors.
  std::size_t edge_count() const { return edges_end - edges_begin; }

  /// True when the node has at least one empty (unoccupied) neighbor --
  /// the LeafNodeSet membership test of Algorithm 3.
  bool has_empty_neighbor() const { return edge_count() < degree; }
};

/// A connected component CG_r^phi of the component graph, in CSR form: node
/// records ascending by name, plus flat robot, edge and edge-target arrays
/// the records index into. clear() keeps every array's capacity, so one
/// retained component is refilled round after round without allocating.
class ComponentGraph {
 public:
  /// (port at the node, neighbor name).
  using Edge = std::pair<Port, RobotId>;

  /// Nodes ascending by name.
  const std::vector<ComponentNode>& nodes() const { return nodes_; }
  std::size_t size() const { return nodes_.size(); }

  /// All robot IDs on `node`, ascending.
  std::span<const RobotId> robots(const ComponentNode& node) const {
    return {robots_.data() + node.robots_begin,
            robots_.data() + node.robots_end};
  }
  /// Edges of `node` to occupied neighbors, ascending by port.
  std::span<const Edge> edges(const ComponentNode& node) const {
    return {edges_.data() + node.edges_begin, edges_.data() + node.edges_end};
  }

  /// Sentinel for an edge whose named neighbor is not a node of this
  /// component (only hand-built or Byzantine-degenerate graphs produce one).
  static constexpr std::uint32_t kMissingTarget = 0xffffffffu;

  /// Dense nodes() indices of `node`'s edge targets, aligned to edges(node):
  /// edge_targets(node)[e] is the index of the node named
  /// edges(node)[e].second (or kMissingTarget). Resolved as the component
  /// is built, so the per-edge consumers (Algorithm 2's builders) walk
  /// indices instead of binary-searching names.
  std::span<const std::uint32_t> edge_targets(const ComponentNode& node) const {
    return {targets_.data() + node.edges_begin,
            targets_.data() + node.edges_end};
  }

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

  /// Empties the component, keeping capacity.
  void clear();
  /// Sizes the buffers for up to `nodes` nodes, `robots` robots and `edges`
  /// edges, growing their capacity geometrically (util/grow.h).
  void reserve(std::size_t nodes, std::size_t robots, std::size_t edges);

 private:
  friend class ComponentBuilder;

  std::vector<ComponentNode> nodes_;  // ascending by name
  std::vector<RobotId> robots_;
  std::vector<Edge> edges_;
  std::vector<std::uint32_t> targets_;  // aligned to edges_
};

/// Algorithm 1 over one packet set, with every buffer retained across
/// packet sets: the sender index (sender-sorted packets plus a direct
/// name -> rank table) and the flood-fill scratch. reset() re-indexes a new
/// set; once the buffers have grown to a round's size, indexing and building
/// allocate nothing (the planner workspace keeps one builder for the whole
/// run). `packets` must outlive every build from it.
///
/// Seeds handed to one indexed set must lie in distinct components: the
/// flood-fill's visited flags persist across build_into() calls, which is
/// what lets next_seed() enumerate the components of the round.
class ComponentBuilder {
 public:
  ComponentBuilder() = default;
  explicit ComponentBuilder(const PacketSet& packets) { reset(packets); }

  /// Indexes `packets` and clears the visited flags and trivial list.
  void reset(const PacketSet& packets);

  /// Builds the component containing `start_name` into `out` (cleared
  /// first) and marks its members visited. `start_name` must be a sender.
  void build_into(RobotId start_name, ComponentGraph& out);

  /// The sender seeding the next not-yet-visited component, in packet
  /// order; kNoRobot once every sender is visited. With `split_trivial`,
  /// single-robot senders whose packets list no occupied neighbor are
  /// marked visited and appended to trivial() instead of being returned:
  /// such components never carry multiplicity and contribute nothing to a
  /// plan, but at k >= 10^5 on sparse random graphs they are ~10^4 per
  /// round. Marking them visited keeps the full build's absorption
  /// behavior: later components keep their edge toward one but never
  /// enqueue it.
  RobotId next_seed(bool split_trivial);

  /// Trivial senders next_seed() has split off since reset(), ascending
  /// for a canonical (sender-ascending) packet set.
  const std::vector<RobotId>& trivial() const { return trivial_; }

 private:
  static constexpr std::uint32_t kMissing = 0xffffffffu;
  static constexpr std::size_t kNoRank = static_cast<std::size_t>(-1);

  /// Dense rank of `name` in the sorted index; kNoRank for phantom names.
  std::size_t rank(RobotId name) const;

  const PacketSet* packets_ = nullptr;
  std::size_t cursor_ = 0;  ///< next_seed's position in packet order.
  /// Packets sorted by sender. Canonical packet sets arrive that way;
  /// hand-built ones may not.
  std::vector<std::pair<RobotId, PacketView>> entries_;
  std::vector<std::uint32_t> rank_of_;  ///< name -> rank; kMissing otherwise.
  /// Flood-fill scratch, by rank: `visited_` flags senders already queued
  /// or absorbed, `frontier_` and `members_` hold pending and collected
  /// ranks, `local_of_` translates a member's rank to its dense index in
  /// the component being materialized. Ranks are below k < 2^32.
  std::vector<char> visited_;
  std::vector<std::uint32_t> frontier_;
  std::vector<std::uint32_t> members_;
  std::vector<std::uint32_t> local_of_;
  /// Reorders a hand-built packet's port-unsorted edge list.
  std::vector<std::pair<ComponentGraph::Edge, std::uint32_t>> unsorted_;
  std::vector<RobotId> trivial_;
};

/// Algorithm 1: builds the connected component containing the node named
/// `start_name` from the full packet set. `packets` must contain one packet
/// per occupied node (as delivered under global communication) and must
/// include neighbor information (1-neighborhood knowledge).
ComponentGraph build_component(const PacketSet& packets, RobotId start_name);

/// Builds every connected component of the packet graph, in the packet
/// order of their seeds (ascending by smallest node name for a canonical
/// set). (Simulator-side convenience; each robot only ever needs its own
/// component.)
std::vector<ComponentGraph> build_all_components(const PacketSet& packets);

}  // namespace dyndisp::core
