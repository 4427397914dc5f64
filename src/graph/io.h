// Graph (de)serialization: DOT for visual inspection, a simple edge-list
// format for round-tripping graphs through files and tests.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/types.h"

namespace dyndisp {

/// Renders `g` as Graphviz DOT. When `occupancy` is non-empty (size n),
/// node labels include robot counts and occupied nodes are filled.
std::string to_dot(const Graph& g,
                   const std::vector<std::size_t>& occupancy = {},
                   const std::string& name = "G");

/// Serializes as "n m\n" followed by one "u v" line per edge in port order.
std::string to_edge_list(const Graph& g);

/// Parses the to_edge_list format. Throws std::invalid_argument on
/// malformed input (bad counts, n beyond NodeId, out-of-range endpoints,
/// self-loops, duplicate edges); edge storage is bounded by the text left.
Graph from_edge_list(const std::string& text);

}  // namespace dyndisp
