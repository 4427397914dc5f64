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
class Graph {
 public:
  Graph() = default;

  /// Creates an edgeless graph with `n` nodes.
  explicit Graph(std::size_t n) : adj_(n) {}

  /// Builds a graph from an edge list; ports are assigned in list order
  /// (the i-th edge incident to v gets port i+1 at v).
  static Graph from_edges(std::size_t n,
                          const std::vector<std::pair<NodeId, NodeId>>& edges);

  struct Edge;  // defined below

  /// Builds a graph from an edge list with EXPLICIT port labels at both
  /// endpoints -- the exact inverse of edges(), so a graph whose ports were
  /// shuffled round-trips bit-identically (scripted-adversary replay relies
  /// on this). Throws std::invalid_argument when the list is not a valid
  /// port-labeled simple graph (duplicate/missing ports, self-loops,
  /// out-of-range endpoints).
  static Graph from_port_edges(std::size_t n, const std::vector<Edge>& edges);

  std::size_t node_count() const { return adj_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  std::size_t degree(NodeId v) const { return adj_[v].size(); }

  /// Maximum degree over all nodes (Delta_r in the paper); 0 if edgeless.
  std::size_t max_degree() const;

  /// Resolves port `p` in [1, degree(v)] at node `v`.
  const HalfEdge& half_edge(NodeId v, Port p) const { return adj_[v][p - 1]; }

  /// The neighbor reached from `v` via port `p`.
  NodeId neighbor(NodeId v, Port p) const { return half_edge(v, p).to; }

  /// All incident half-edges of `v`, indexed by port-1.
  const std::vector<HalfEdge>& incident(NodeId v) const { return adj_[v]; }

  /// True if {u, v} is an edge (linear scan; graphs here are sparse).
  bool has_edge(NodeId u, NodeId v) const;

  /// Port at `u` leading to `v`, or kInvalidPort when {u,v} is not an edge.
  Port port_to(NodeId u, NodeId v) const;

  /// Adds the edge {u, v}; returns the (port at u, port at v) pair.
  /// Requires u != v and that the edge is not already present.
  std::pair<Port, Port> add_edge(NodeId u, NodeId v);

  /// Capacity hint: pre-sizes `v`'s adjacency for `degree` incident edges.
  /// Purely an allocation optimization for builders that know final degrees
  /// up front (adversaries regenerate a graph every round, so the growth
  /// reallocations of plain add_edge dominate generation at n >= 10^5).
  void reserve_ports(NodeId v, std::size_t degree) {
    adj_[v].reserve(degree);
  }

  /// Removes the edge {u, v} if present, compacting port labels so they stay
  /// contiguous (the ports of later edges shift down by one at each
  /// endpoint). Returns true if an edge was removed.
  bool remove_edge(NodeId u, NodeId v);

  /// Replaces the edge {u, v} with the two edges {u, x} and {v, y} while
  /// keeping the port layout at u and v intact: the port that led from u to v
  /// now leads to x, and the port that led from v to u now leads to y. The
  /// new half-edges at x and y are appended (highest ports). This is the
  /// surgical rewiring used by the Theorem 2 clique-trap adversary, which
  /// must not disturb any port a robot could have planned to use.
  /// Requires {u, v} present, {u, x} and {v, y} absent, x != u, y != v.
  void rewire_edge(NodeId u, NodeId v, NodeId x, NodeId y);

  /// Randomly permutes the port labels of every node. Models the adversary's
  /// freedom to choose arbitrary port numberings each round.
  void shuffle_ports(Rng& rng);

  /// Counter-stream sibling of shuffle_ports: every node's ports are
  /// independently Fisher-Yates-permuted from the per-node fork of the
  /// (seed, draw) stream, fanned over `pool` (null runs serially). Equal to
  /// shuffle_ports in distribution, not in draws -- and byte-identical at
  /// any thread count for a fixed (seed, draw), which is what lets the
  /// port-relabeling adversaries go parallel without losing determinism.
  void shuffle_ports_counter(std::uint64_t seed, std::uint64_t draw,
                             ThreadPool* pool);

  /// Applies an explicit port permutation at node `v`: `perm[i]` is the new
  /// 0-based position of the half-edge currently at 0-based position i.
  /// `perm` must be a permutation of [0, degree(v)).
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
  /// The flat counter-based builders assemble every adjacency row and the
  /// edge fingerprint themselves (possibly across threads), then commit the
  /// aggregate counters in one step -- the incremental bookkeeping of
  /// add_edge would serialize them. reset_assembly() sizes the graph to `n`
  /// nodes and clears every row WITHOUT releasing row capacity, so a
  /// regenerating adversary that recycles one Graph re-fills rows in place.
  /// Writers fill rows via assembly_row() (row[p-1] = {neighbor, reverse
  /// port}); commit_assembly() then installs the caller-computed edge count
  /// and XOR-of-fp_edge_term fingerprint. Debug builds re-validate the
  /// invariants; release builds trust the builder (the conformance suite
  /// pins builder output against the incremental path).
  void reset_assembly(std::size_t n);
  std::vector<HalfEdge>& assembly_row(NodeId v) { return adj_[v]; }
  void commit_assembly(std::size_t edge_count, std::uint64_t fp_edges);

  /// Deterministic 64-bit structural fingerprint of the port-labeled edge
  /// set plus the node count (see graph/fingerprint.h). Maintained
  /// incrementally by every mutator, so this is O(1). Equal graphs always
  /// have equal fingerprints; the converse holds up to ~2^-64 collisions.
  std::uint64_t fingerprint() const {
    return fp_mix(fp_edges_ ^ fp_mix(static_cast<std::uint64_t>(adj_.size())));
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

  /// Verifies internal consistency (reverse ports, contiguity, simplicity).
  /// Returns an empty string when valid, else a description of the violation.
  std::string validate() const;

  bool operator==(const Graph& other) const {
    return adj_ == other.adj_;
  }

 private:
  std::vector<std::vector<HalfEdge>> adj_;
  std::size_t edge_count_ = 0;
  /// XOR of fp_edge_term over all edges; folded into fingerprint().
  std::uint64_t fp_edges_ = 0;

  friend bool operator==(const HalfEdge&, const HalfEdge&);
};

inline bool operator==(const HalfEdge& a, const HalfEdge& b) {
  return a.to == b.to && a.reverse_port == b.reverse_port;
}

}  // namespace dyndisp
