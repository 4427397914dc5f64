// Classic graph algorithms over the simulator-side Graph.
//
// These run with full topology knowledge and are used by the substrate
// itself (adversary validation, diameter computation, metrics) -- never by
// the robot algorithms, which only see ports and packets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/types.h"

namespace dyndisp {

/// BFS hop distances from `source`; unreachable nodes get kUnreachable.
inline constexpr std::size_t kUnreachable = static_cast<std::size_t>(-1);
std::vector<std::size_t> bfs_distances(const Graph& g, NodeId source);

/// True if the graph is connected (vacuously true for n <= 1).
bool is_connected(const Graph& g);

/// Storage for repeated connectivity checks, kept by callers that check a
/// graph every round: the visited marks and the BFS order, both sized to n
/// by the first check and reused after.
struct BfsScratch {
  std::vector<std::uint8_t> seen;
  std::vector<NodeId> order;
};

/// is_connected over caller-kept scratch: a flat BFS that allocates
/// nothing once the scratch has seen n nodes.
bool is_connected(const Graph& g, BfsScratch& scratch);

/// Connected components; returns component index per node (0-based,
/// numbered by smallest contained node).
std::vector<std::size_t> connected_components(const Graph& g);

/// Eccentricity of `source` (max BFS distance); requires connectivity.
std::size_t eccentricity(const Graph& g, NodeId source);

/// Exact diameter via all-pairs BFS; requires connectivity. D_r in the paper.
std::size_t diameter(const Graph& g);

/// A BFS spanning tree encoded as parent pointers (parent[source] = source).
/// Requires connectivity.
std::vector<NodeId> bfs_tree(const Graph& g, NodeId source);

/// Shortest path between two nodes as a node sequence (inclusive);
/// empty if unreachable.
std::vector<NodeId> shortest_path(const Graph& g, NodeId from, NodeId to);

/// True if the connected graph g is a tree (m == n - 1 and connected).
bool is_tree(const Graph& g);

}  // namespace dyndisp
