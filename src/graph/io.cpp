#include "graph/io.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace dyndisp {

std::string to_dot(const Graph& g, const std::vector<std::size_t>& occupancy,
                   const std::string& name) {
  std::ostringstream os;
  os << "graph " << name << " {\n";
  os << "  node [shape=circle];\n";
  const bool with_occ = occupancy.size() == g.node_count();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    os << "  n" << v << " [label=\"" << v;
    if (with_occ && occupancy[v] > 0) os << "\\nr=" << occupancy[v];
    os << "\"";
    if (with_occ && occupancy[v] > 0)
      os << ", style=filled, fillcolor=" << (occupancy[v] > 1 ? "salmon" : "lightblue");
    os << "];\n";
  }
  for (const auto& e : g.edges()) {
    os << "  n" << e.u << " -- n" << e.v << " [taillabel=\"" << e.port_u
       << "\", headlabel=\"" << e.port_v << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_edge_list(const Graph& g) {
  std::ostringstream os;
  os << g.node_count() << ' ' << g.edge_count() << '\n';
  for (const auto& e : g.edges()) os << e.u << ' ' << e.v << '\n';
  return os.str();
}

Graph from_edge_list(const std::string& text) {
  // The shortest edge line, "0 1" and one separator: the text left after
  // the header bounds how many edges it can still hold.
  constexpr std::size_t kMinEdgeChars = 4;
  std::istringstream is(text);
  std::size_t n = 0, m = 0;
  if (!(is >> n >> m)) throw std::invalid_argument("edge list: missing header");
  if (n > kInvalidNode)
    throw std::invalid_argument("edge list: node count " + std::to_string(n) +
                                " beyond NodeId");
  const std::streamoff read = is.tellg();  // -1 once the text is spent
  const std::size_t left =
      read < 0 ? 0 : text.size() - static_cast<std::size_t>(read);
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(std::min(m, left / kMinEdgeChars));
  for (std::size_t i = 0; i < m; ++i) {
    NodeId u, v;
    if (!(is >> u >> v))
      throw std::invalid_argument("edge list: truncated edge section");
    if (u >= n || v >= n)
      throw std::invalid_argument("edge list: endpoint out of range");
    if (u == v) throw std::invalid_argument("edge list: self-loop");
    edges.emplace_back(u, v);
  }
  // Duplicates by sorting canonical keys: O(m log m), where a has_edge scan
  // per edge is quadratic on a dense graph.
  std::vector<std::uint64_t> keys;
  keys.reserve(edges.size());
  for (const auto& [u, v] : edges)
    keys.push_back((std::uint64_t{std::min(u, v)} << 32) | std::max(u, v));
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end())
    throw std::invalid_argument("edge list: duplicate edge");
  return Graph::from_edges(n, edges);
}

}  // namespace dyndisp
