// Validity checks for adversary-emitted graphs: the 1-interval connected
// model demands a fixed vertex set, simple undirected edges, contiguous
// consistent port labels, and connectivity in every round.
#pragma once

#include <string>

#include "graph/algorithms.h"
#include "graph/graph.h"

namespace dyndisp {

/// Returns an empty string when `g` is a valid round-graph for an n-node
/// 1-interval connected dynamic graph, else a description of the violation.
std::string validate_round_graph(const Graph& g, std::size_t n);

/// validate_round_graph with the connectivity BFS over scratch the caller
/// keeps across rounds (the engine checks every emitted graph), so a valid
/// graph is checked without allocating.
std::string validate_round_graph(const Graph& g, std::size_t n,
                                 BfsScratch& scratch);

}  // namespace dyndisp
