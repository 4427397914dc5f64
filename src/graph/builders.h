// Standard graph families used by tests, adversaries, and benches.
//
// Every builder returns a Graph whose port labels follow deterministic
// insertion order; callers that want adversarial or randomized labelings
// apply Graph::shuffle_ports afterwards.
#pragma once

#include <cstddef>

#include "graph/graph.h"
#include "util/rng.h"

namespace dyndisp {
class ThreadPool;  // util/parallel.h
}

namespace dyndisp::builders {

/// Path 0-1-2-...-(n-1). Requires n >= 1.
Graph path(std::size_t n);

/// Cycle 0-1-...-(n-1)-0. Requires n >= 3.
Graph cycle(std::size_t n);

/// Star with center 0 and leaves 1..n-1. Requires n >= 1.
Graph star(std::size_t n);

/// Complete graph K_n. Requires n >= 1.
Graph complete(std::size_t n);

/// Complete bipartite K_{a,b}; side A is nodes [0,a), side B is [a, a+b).
Graph complete_bipartite(std::size_t a, std::size_t b);

/// rows x cols grid; node (r, c) has index r*cols + c. Requires rows, cols >= 1.
Graph grid(std::size_t rows, std::size_t cols);

/// rows x cols torus (grid with wraparound). Requires rows, cols >= 3.
Graph torus(std::size_t rows, std::size_t cols);

/// d-dimensional hypercube with 2^d nodes. Requires d >= 1.
Graph hypercube(std::size_t d);

/// Complete binary tree with n nodes (heap indexing: children 2i+1, 2i+2).
Graph binary_tree(std::size_t n);

/// Lollipop: K_m attached to a path of p extra nodes. Requires m >= 1.
Graph lollipop(std::size_t m, std::size_t p);

/// Uniform random labeled tree via a random Prüfer sequence. Requires n >= 1.
Graph random_tree(std::size_t n, Rng& rng);

/// Connected random graph: a random tree plus `extra_edges` distinct random
/// non-tree edges (clamped to the number of available slots).
Graph random_connected(std::size_t n, std::size_t extra_edges, Rng& rng);

/// Connected Erdos-Renyi-style graph: each non-tree pair kept with
/// probability p on top of a random spanning tree.
Graph random_connected_p(std::size_t n, double p, Rng& rng);

/// Reusable storage for random_connected_counter: one instance per adversary,
/// refilled in place every round so steady-state graph generation allocates
/// nothing (the k=10^6 row regenerates a million-node graph every round; the
/// fresh-vector churn of the sequential builder dominated its graph phase).
struct CounterBuildScratch {
  std::vector<std::uint32_t> prufer;
  std::vector<std::uint32_t> deg;      ///< Final degree per node.
  std::vector<std::uint32_t> eu, ev;   ///< Edge endpoints (tree then chords).
  std::vector<std::uint32_t> cursor;   ///< Row fill cursors.
  /// Each edge side at its canonical slot: {neighbor, twin's slot} (2m).
  std::vector<HalfEdge> staged;
  std::vector<std::uint32_t> su, sv;   ///< Each edge's slots at eu, ev (m).
  std::vector<Port> slot_port;         ///< Shuffled port per slot (2m).
  std::vector<std::uint64_t> table;    ///< Open-addressing edge membership.
};

/// Connected random graph with shuffled ports from counter-based RNG
/// streams: a uniform random tree (parallel Prüfer fill, linear smallest-
/// leaf decode) plus `extra_edges` distinct chords, with every node's port
/// labels independently Fisher-Yates-permuted -- the counter-stream
/// equivalent of random_connected + Graph::shuffle_ports, distribution-wise
/// (the draw sequences differ, so the sampled graph differs for a given
/// seed). (seed, draw) keys the graph: the same pair always yields the same
/// bytes, at any thread count of `pool` (or pool == nullptr), which is the
/// identity the adversary conformance suite pins. This is the one random
/// graph generator of the regenerating adversaries at every n. Requires
/// n >= 1 (n = 1 yields the single node, n = 2 the single edge).
void random_connected_counter(std::size_t n, std::size_t extra_edges,
                              std::uint64_t seed, std::uint64_t draw,
                              ThreadPool* pool, CounterBuildScratch& scratch,
                              Graph& out);

}  // namespace dyndisp::builders
