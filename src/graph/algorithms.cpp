#include "graph/algorithms.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "util/contract.h"

namespace dyndisp {

std::vector<std::size_t> bfs_distances(const Graph& g, NodeId source) {
  std::vector<std::size_t> dist(g.node_count(), kUnreachable);
  std::queue<NodeId> q;
  dist[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (const HalfEdge& he : g.incident(v)) {
      if (dist[he.to] == kUnreachable) {
        dist[he.to] = dist[v] + 1;
        q.push(he.to);
      }
    }
  }
  return dist;
}

bool is_connected(const Graph& g) {
  BfsScratch scratch;
  return is_connected(g, scratch);
}

DYNDISP_HOT
bool is_connected(const Graph& g, BfsScratch& scratch) {
  const std::size_t n = g.node_count();
  if (n <= 1) return true;
  scratch.seen.assign(n, 0);
  scratch.order.resize(n);
  // order[0, tail) holds every node reached so far, each once, and
  // order[head, tail) is the frontier still to expand.
  std::size_t head = 0, tail = 0;
  scratch.seen[0] = 1;
  scratch.order[tail++] = 0;
  while (head < tail) {
    for (const HalfEdge& he : g.incident(scratch.order[head++])) {
      if (scratch.seen[he.to]) continue;
      scratch.seen[he.to] = 1;
      scratch.order[tail++] = he.to;
    }
  }
  return tail == n;
}

std::vector<std::size_t> connected_components(const Graph& g) {
  std::vector<std::size_t> comp(g.node_count(), kUnreachable);
  std::size_t next = 0;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    if (comp[s] != kUnreachable) continue;
    const std::size_t id = next++;
    std::queue<NodeId> q;
    comp[s] = id;
    q.push(s);
    while (!q.empty()) {
      const NodeId v = q.front();
      q.pop();
      for (const HalfEdge& he : g.incident(v)) {
        if (comp[he.to] == kUnreachable) {
          comp[he.to] = id;
          q.push(he.to);
        }
      }
    }
  }
  return comp;
}

std::size_t eccentricity(const Graph& g, NodeId source) {
  const auto dist = bfs_distances(g, source);
  std::size_t ecc = 0;
  for (const std::size_t d : dist) {
    assert(d != kUnreachable && "eccentricity requires a connected graph");
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::size_t diameter(const Graph& g) {
  std::size_t d = 0;
  for (NodeId v = 0; v < g.node_count(); ++v)
    d = std::max(d, eccentricity(g, v));
  return d;
}

std::vector<NodeId> bfs_tree(const Graph& g, NodeId source) {
  std::vector<NodeId> parent(g.node_count(), kInvalidNode);
  std::queue<NodeId> q;
  parent[source] = source;
  q.push(source);
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (const HalfEdge& he : g.incident(v)) {
      if (parent[he.to] == kInvalidNode) {
        parent[he.to] = v;
        q.push(he.to);
      }
    }
  }
  return parent;
}

std::vector<NodeId> shortest_path(const Graph& g, NodeId from, NodeId to) {
  const auto parent = bfs_tree(g, from);
  if (parent[to] == kInvalidNode) return {};
  std::vector<NodeId> path;
  for (NodeId v = to; v != from; v = parent[v]) path.push_back(v);
  path.push_back(from);
  std::reverse(path.begin(), path.end());
  return path;
}

bool is_tree(const Graph& g) {
  return g.node_count() >= 1 && g.edge_count() == g.node_count() - 1 &&
         is_connected(g);
}

}  // namespace dyndisp
