// Port-labeled anonymous undirected graph (Section II of the paper).
//
// Nodes carry no identifiers visible to algorithms; what the model exposes is
// that the edges incident to a node v are labeled by distinct ports in
// [1, deg(v)], and that an edge {u, v} has two independent port numbers, one
// per endpoint, with no correlation between them. The simulator uses internal
// NodeIds in [0, n) to represent topology; algorithm-facing layers translate
// everything into ports / robot IDs before handing information to robots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/fingerprint.h"
#include "util/rng.h"
#include "util/types.h"

namespace dyndisp {

class ThreadPool;  // util/parallel.h

/// One endpoint's view of an incident edge.
struct HalfEdge {
  NodeId to = kInvalidNode;     ///< The neighbor this port leads to.
  Port reverse_port = kInvalidPort;  ///< The port of `to` that leads back.
};

/// Undirected simple graph with per-node contiguous port labels.
///
/// Ports are 1-based: node v with degree d exposes ports 1..d, and
/// `half_edge(v, p)` resolves port p. The class maintains the invariant that
/// reverse ports are consistent: if half_edge(v, p) == {u, q} then
/// half_edge(u, q) == {v, p}.
///
/// Storage is compressed sparse rows: one (n + 1)-entry offset array and one
/// array of 2m half-edges, where node v's row -- its half-edges in port
/// order -- is [offsets[v], offsets[v + 1]). The adversaries emit a fresh
/// graph every round, so a Graph that is refilled in place (assign_edges,
/// the bulk assembly below, copy-assignment) reuses both arrays' capacity
/// and a warm refill allocates nothing. Inserting or deleting one edge
/// shifts every later row: add_edge and remove_edge are O(n + m), for tests,
/// tools and mutation-based adversaries; builders assemble whole graphs.
class Graph {
 public:
  /// Offset of a row into the half-edge array; 2m must fit.
  using Offset = std::uint32_t;

  Graph() = default;

  /// Creates an edgeless graph with `n` nodes.
  explicit Graph(std::size_t n) : offsets_(n + 1, 0) {}

  /// Builds a graph from an edge list; ports are assigned in list order
  /// (the i-th edge incident to v gets port i+1 at v).
  static Graph from_edges(std::size_t n,
                          const std::vector<std::pair<NodeId, NodeId>>& edges);

  struct Edge;  // defined below

  /// Builds a graph from an edge list with EXPLICIT port labels at both
  /// endpoints -- the exact inverse of edges(), so a graph whose ports were
  /// shuffled round-trips bit-identically (scripted-adversary replay relies
  /// on this). Throws std::invalid_argument when the list is not a valid
  /// port-labeled simple graph (duplicate/missing ports, a port above its
  /// endpoint's edge count, self-loops, parallel edges, out-of-range
  /// endpoints, n beyond NodeId). Ports are checked against their
  /// endpoint's edge count before any row is sized, so a hostile port
  /// number costs no memory.
  static Graph from_port_edges(std::size_t n, const std::vector<Edge>& edges);

  std::size_t node_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t edge_count() const { return edge_count_; }

  std::size_t degree(NodeId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Maximum degree over all nodes (Delta_r in the paper); 0 if edgeless.
  std::size_t max_degree() const;

  /// Resolves port `p` in [1, degree(v)] at node `v`.
  const HalfEdge& half_edge(NodeId v, Port p) const {
    return half_[offsets_[v] + p - 1];
  }

  /// The neighbor reached from `v` via port `p`.
  NodeId neighbor(NodeId v, Port p) const { return half_edge(v, p).to; }

  /// All incident half-edges of `v`, indexed by port-1.
  std::span<const HalfEdge> incident(NodeId v) const {
    return {half_.data() + offsets_[v], degree(v)};
  }

  /// True if {u, v} is an edge (linear scan; graphs here are sparse).
  bool has_edge(NodeId u, NodeId v) const;

  /// Port at `u` leading to `v`, or kInvalidPort when {u,v} is not an edge.
  Port port_to(NodeId u, NodeId v) const;

  /// Adds the edge {u, v}; returns the (port at u, port at v) pair.
  /// Requires u != v and that the edge is not already present. O(n + m).
  std::pair<Port, Port> add_edge(NodeId u, NodeId v);

  /// Removes the edge {u, v} if present, compacting port labels so they stay
  /// contiguous (the ports of later edges shift down by one at each
  /// endpoint). Returns true if an edge was removed. O(n + m).
  bool remove_edge(NodeId u, NodeId v);

  /// Replaces the whole graph by `n` nodes and `edges`, numbering ports in
  /// list order exactly as from_edges does, into the recycled arrays. The
  /// model's contract (endpoints in range, no self-loop, no parallel edge)
  /// is asserted at add_edge's per-edge cost. Every per-round emitter that
  /// builds from an edge list goes through here.
  void assign_edges(std::size_t n,
                    std::span<const std::pair<NodeId, NodeId>> edges);

  /// Randomly permutes the port labels of every node. Models the adversary's
  /// freedom to choose arbitrary port numberings each round.
  void shuffle_ports(Rng& rng);

  /// Staging for shuffle_ports_counter, kept by its caller across calls:
  /// the relabeled rows are built into `rebuilt` and swapped in, so a
  /// caller that relabels a graph every round trades the same two buffers
  /// back and forth and a warm call allocates nothing.
  struct ShuffleScratch {
    std::vector<Port> new_port;    ///< New port of each slot's half-edge.
    std::vector<HalfEdge> rebuilt; ///< The relabeled rows.
  };

  /// Counter-stream sibling of shuffle_ports: every node's ports are
  /// independently Fisher-Yates-permuted from the per-node fork of the
  /// (seed, draw) stream, fanned over `pool` (null runs serially). Equal to
  /// shuffle_ports in distribution, not in draws -- and byte-identical at
  /// any thread count for a fixed (seed, draw), which is what lets the
  /// port-relabeling adversaries go parallel without losing determinism.
  void shuffle_ports_counter(std::uint64_t seed, std::uint64_t draw,
                             ThreadPool* pool, ShuffleScratch& scratch);

  /// Applies an explicit port permutation at node `v`: `perm[i]` is the new
  /// 0-based position of the half-edge currently at 0-based position i.
  /// `perm` must be a permutation of [0, degree(v)). O(degree(v)).
  void permute_ports(NodeId v, const std::vector<std::size_t>& perm);

  /// permute_ports with caller-owned scratch: callers that permute many
  /// nodes (shuffle_ports, the path-trap candidates) reuse the
  /// rearrangement buffer instead of allocating one per call.
  void permute_ports(NodeId v, const std::vector<std::size_t>& perm,
                     std::vector<HalfEdge>& scratch);

  /// All edges as (u, v, port at u, port at v) with u < v, in port order at u.
  struct Edge {
    NodeId u, v;
    Port port_u, port_v;

    bool operator==(const Edge&) const = default;
  };
  std::vector<Edge> edges() const;

  /// edges() into caller-owned storage (cleared first) so per-round callers
  /// (the churn adversary re-draws from the edge list every round) reuse the
  /// vector's capacity instead of reallocating it.
  void edges_into(std::vector<Edge>& out) const;

  /// -- Bulk assembly (trusted deterministic builders only) ----------------
  ///
  /// Builders that know every degree up front (the counter-based random
  /// graph, the dynamic ring) write the two arrays themselves, possibly
  /// across threads, and commit the aggregate counters in one step.
  /// begin_assembly(n, half_edges) sizes the graph to `n` nodes and
  /// `half_edges` slots, keeping both arrays' capacity, and hands both
  /// arrays to the caller, who fills every entry: offsets[0] = 0,
  /// non-decreasing, offsets[n] = half_edges, and port p of node v in
  /// slots[offsets[v] + p - 1] = {neighbor, reverse port}.
  /// commit_assembly() installs the caller-computed edge count and
  /// XOR-of-fp_edge_term fingerprint. It does not validate: every round
  /// graph is validated once by the engine's round-graph check, and the
  /// builders' tests validate their output directly.
  struct Assembly {
    std::span<Offset> offsets;
    std::span<HalfEdge> slots;
  };
  Assembly begin_assembly(std::size_t n, std::size_t half_edges);
  void commit_assembly(std::size_t edge_count, std::uint64_t fp_edges);

  /// Deterministic 64-bit structural fingerprint of the port-labeled edge
  /// set plus the node count (see graph/fingerprint.h). Maintained
  /// incrementally by every mutator, so this is O(1). Equal graphs always
  /// have equal fingerprints; the converse holds up to ~2^-64 collisions.
  std::uint64_t fingerprint() const {
    return fp_mix(fp_edges_ ^
                  fp_mix(static_cast<std::uint64_t>(node_count())));
  }

  /// The structural difference against `prev` (typically last round's
  /// graph), abandoned early: fills `out` (cleared first) with the nodes
  /// whose incident half-edge list differs from `prev`, ascending, and
  /// returns true -- unless more than `cap` nodes differ or the node counts
  /// differ, in which case it returns false with `out` in an unspecified
  /// partial state. A port relabeling changes both endpoints' lists, since
  /// packets and plans depend on port identity. The round loop's
  /// small-delta probe uses this so churn-heavy rounds pay for a prefix of
  /// the comparison only.
  bool changed_nodes_into(const Graph& prev, std::vector<NodeId>& out,
                          std::size_t cap) const;

  /// Verifies internal consistency (reverse ports, simplicity, the edge
  /// count); contiguity holds by construction. Returns an empty string when
  /// valid, else a description of the violation.
  std::string validate() const;

  bool operator==(const Graph& other) const;

 private:
  /// Row bounds: node v's half-edges are half_[offsets_[v], offsets_[v+1]).
  /// Empty (not {0}) only for a default-constructed or moved-from graph.
  std::vector<Offset> offsets_;
  std::vector<HalfEdge> half_;
  std::size_t edge_count_ = 0;
  /// XOR of fp_edge_term over all edges; folded into fingerprint().
  std::uint64_t fp_edges_ = 0;
};

inline bool operator==(const HalfEdge& a, const HalfEdge& b) {
  return a.to == b.to && a.reverse_port == b.reverse_port;
}

}  // namespace dyndisp
