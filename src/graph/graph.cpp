#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/contract.h"
#include "util/parallel.h"

namespace dyndisp {

Graph Graph::from_edges(std::size_t n,
                        const std::vector<std::pair<NodeId, NodeId>>& edges) {
  Graph g(n);
  // Pre-size each adjacency list to its final degree so dense builders
  // (cliques, trap graphs) do no reallocation during insertion.
  std::vector<std::size_t> degree(n, 0);
  for (const auto& [u, v] : edges) {
    ++degree[u];
    ++degree[v];
  }
  for (NodeId v = 0; v < n; ++v) g.adj_[v].reserve(degree[v]);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  return g;
}

Graph Graph::from_port_edges(std::size_t n, const std::vector<Edge>& edges) {
  Graph g(n);
  // First pass: degrees are the highest port named at each endpoint.
  std::vector<std::size_t> degree(n, 0);
  for (const Edge& e : edges) {
    if (e.u >= n || e.v >= n)
      throw std::invalid_argument("from_port_edges: endpoint out of range");
    if (e.u == e.v)
      throw std::invalid_argument("from_port_edges: self-loop");
    if (e.port_u == kInvalidPort || e.port_v == kInvalidPort)
      throw std::invalid_argument("from_port_edges: invalid port");
    degree[e.u] = std::max(degree[e.u], static_cast<std::size_t>(e.port_u));
    degree[e.v] = std::max(degree[e.v], static_cast<std::size_t>(e.port_v));
  }
  for (NodeId v = 0; v < n; ++v)
    g.adj_[v].assign(degree[v], HalfEdge{});
  for (const Edge& e : edges) {
    HalfEdge& at_u = g.adj_[e.u][e.port_u - 1];
    HalfEdge& at_v = g.adj_[e.v][e.port_v - 1];
    if (at_u.to != kInvalidNode || at_v.to != kInvalidNode)
      throw std::invalid_argument("from_port_edges: duplicate port");
    at_u = HalfEdge{e.v, e.port_v};
    at_v = HalfEdge{e.u, e.port_u};
    g.fp_edges_ ^= fp_edge_term(e.u, e.v, e.port_u, e.port_v);
    ++g.edge_count_;
  }
  // Every port in [1, degree] must have been named (contiguity), and the
  // usual simple-graph invariants must hold; validate() checks both.
  for (NodeId v = 0; v < n; ++v)
    for (const HalfEdge& he : g.adj_[v])
      if (he.to == kInvalidNode)
        throw std::invalid_argument("from_port_edges: port gap at node " +
                                    std::to_string(v));
  if (std::string err = g.validate(); !err.empty())
    throw std::invalid_argument("from_port_edges: " + err);
  return g;
}

std::size_t Graph::max_degree() const {
  std::size_t d = 0;
  for (const auto& inc : adj_) d = std::max(d, inc.size());
  return d;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  // Scan the lower-degree endpoint: membership is symmetric, and hub-and-
  // spoke graphs (stars, blobs) make the asymmetry a k-fold saving.
  if (adj_[v].size() < adj_[u].size()) std::swap(u, v);
  for (const auto& he : adj_[u])
    if (he.to == v) return true;
  return false;
}

Port Graph::port_to(NodeId u, NodeId v) const {
  // Same lower-degree trick: v's half-edge back to u records the port at u
  // as its reverse_port, so scanning the shorter list still answers for u.
  if (adj_[v].size() < adj_[u].size()) {
    for (const auto& he : adj_[v])
      if (he.to == u) return he.reverse_port;
    return kInvalidPort;
  }
  for (std::size_t i = 0; i < adj_[u].size(); ++i)
    if (adj_[u][i].to == v) return static_cast<Port>(i + 1);
  return kInvalidPort;
}

std::pair<Port, Port> Graph::add_edge(NodeId u, NodeId v) {
  assert(u < adj_.size() && v < adj_.size());
  assert(u != v && "self-loops are not part of the model");
  assert(!has_edge(u, v) && "parallel edges are not part of the model");
  const Port pu = static_cast<Port>(adj_[u].size() + 1);
  const Port pv = static_cast<Port>(adj_[v].size() + 1);
  adj_[u].push_back(HalfEdge{v, pv});
  adj_[v].push_back(HalfEdge{u, pu});
  fp_edges_ ^= fp_edge_term(u, v, pu, pv);
  ++edge_count_;
  return {pu, pv};
}

bool Graph::remove_edge(NodeId u, NodeId v) {
  const Port pu = port_to(u, v);
  if (pu == kInvalidPort) return false;
  const Port pv = adj_[u][pu - 1].reverse_port;
  fp_edges_ ^= fp_edge_term(u, v, pu, pv);

  auto drop = [&](NodeId a, Port pa) {
    // Port compaction relabels every edge sitting above pa at `a`, so their
    // fingerprint terms change: XOR the old terms out before the shift and
    // the new ones back in after. The removed edge itself sits AT pa (never
    // above it), so its stale twin at the second drop is not re-counted.
    for (std::size_t i = pa; i < adj_[a].size(); ++i) {
      const HalfEdge& he = adj_[a][i];
      fp_edges_ ^= fp_edge_term(a, he.to, static_cast<Port>(i + 1),
                                he.reverse_port);
    }
    adj_[a].erase(adj_[a].begin() + (pa - 1));
    // Compact: every half-edge that used to sit at a port > pa shifts down;
    // fix the reverse_port recorded at the far endpoint.
    for (std::size_t i = pa - 1; i < adj_[a].size(); ++i) {
      const HalfEdge& he = adj_[a][i];
      adj_[he.to][he.reverse_port - 1].reverse_port = static_cast<Port>(i + 1);
      fp_edges_ ^= fp_edge_term(a, he.to, static_cast<Port>(i + 1),
                                he.reverse_port);
    }
  };
  drop(u, pu);
  // pv is still valid at v: dropping at u only rewrote reverse ports stored
  // at *other* endpoints of u's edges; the edge {u,v} itself is gone from u.
  drop(v, pv);
  --edge_count_;
  return true;
}

void Graph::rewire_edge(NodeId u, NodeId v, NodeId x, NodeId y) {
  const Port pu = port_to(u, v);
  assert(pu != kInvalidPort && "rewire_edge requires the edge {u,v}");
  const Port pv = adj_[u][pu - 1].reverse_port;
  assert(x != u && !has_edge(u, x));
  assert(y != v && !has_edge(v, y));
  const Port px = static_cast<Port>(adj_[x].size() + 1);
  adj_[x].push_back(HalfEdge{u, pu});
  adj_[u][pu - 1] = HalfEdge{x, px};
  const Port py = static_cast<Port>(adj_[y].size() + 1);
  adj_[y].push_back(HalfEdge{v, pv});
  adj_[v][pv - 1] = HalfEdge{y, py};
  fp_edges_ ^= fp_edge_term(u, v, pu, pv) ^ fp_edge_term(u, x, pu, px) ^
               fp_edge_term(v, y, pv, py);
  ++edge_count_;
}

void Graph::permute_ports(NodeId v, const std::vector<std::size_t>& perm) {
  std::vector<HalfEdge> scratch;
  permute_ports(v, perm, scratch);
}

void Graph::permute_ports(NodeId v, const std::vector<std::size_t>& perm,
                          std::vector<HalfEdge>& scratch) {
  assert(perm.size() == adj_[v].size());
  // Every incident edge's port at v changes, so retire all of v's terms and
  // re-add them after the permutation (reverse ports elsewhere included).
  for (std::size_t i = 0; i < adj_[v].size(); ++i) {
    const HalfEdge& he = adj_[v][i];
    fp_edges_ ^=
        fp_edge_term(v, he.to, static_cast<Port>(i + 1), he.reverse_port);
  }
  scratch.resize(adj_[v].size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    assert(perm[i] < scratch.size());
    scratch[perm[i]] = adj_[v][i];
  }
  std::copy(scratch.begin(), scratch.end(), adj_[v].begin());
  for (std::size_t i = 0; i < adj_[v].size(); ++i) {
    const HalfEdge& he = adj_[v][i];
    adj_[he.to][he.reverse_port - 1].reverse_port = static_cast<Port>(i + 1);
    fp_edges_ ^=
        fp_edge_term(v, he.to, static_cast<Port>(i + 1), he.reverse_port);
  }
}

void Graph::shuffle_ports(Rng& rng) {
  std::vector<std::size_t> perm;
  std::vector<HalfEdge> scratch;
  for (NodeId v = 0; v < adj_.size(); ++v) {
    perm.resize(adj_[v].size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    rng.shuffle(perm);
    permute_ports(v, perm, scratch);
  }
}

DYNDISP_HOT
void Graph::shuffle_ports_counter(std::uint64_t seed, std::uint64_t draw,
                                  ThreadPool* pool) {
  const std::size_t n = adj_.size();
  const CounterRng streams(seed, draw);
  std::vector<std::size_t> off(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) off[v + 1] = off[v] + adj_[v].size();
  // new_port[off[v] + i] is the new 1-based port of the half-edge currently
  // at 0-based slot i of v: each node permutes its own CSR segment from its
  // forked stream, so the pass is lane-safe and order-independent.
  std::vector<Port> new_port(off[n]);
  parallel_for(pool, n, [&](std::size_t v) {
    Port* seg = new_port.data() + off[v];
    const std::size_t d = adj_[v].size();
    for (std::size_t i = 0; i < d; ++i) seg[i] = static_cast<Port>(i + 1);
    const CounterRng node = streams.fork(v);
    for (std::size_t j = d; j > 1; --j)
      std::swap(seg[j - 1], seg[node.below(j, j)]);
  });
  // Relabeled rows are staged into a flat scratch first: the rebuild reads
  // OTHER nodes' old slots (for reverse ports), so writing adj_ in place
  // would race across lanes. The copy-back pass then owns each row.
  std::vector<HalfEdge> rebuilt(off[n]);
  parallel_for(pool, n, [&](std::size_t v) {
    const std::size_t base = off[v];
    for (std::size_t i = 0; i < adj_[v].size(); ++i) {
      const HalfEdge& he = adj_[v][i];
      const Port np = new_port[base + i];
      const Port nrev = new_port[off[he.to] + he.reverse_port - 1];
      rebuilt[base + np - 1] = HalfEdge{he.to, nrev};
    }
  });
  parallel_for(pool, n, [&](std::size_t v) {
    std::copy(rebuilt.begin() + static_cast<std::ptrdiff_t>(off[v]),
              rebuilt.begin() + static_cast<std::ptrdiff_t>(off[v + 1]),
              adj_[v].begin());
  });
  // Every port changed; rebuild the edge fingerprint in one sweep.
  std::uint64_t fp = 0;
  for (NodeId v = 0; v < n; ++v)
    for (std::size_t i = 0; i < adj_[v].size(); ++i) {
      const HalfEdge& he = adj_[v][i];
      if (v < he.to)
        fp ^= fp_edge_term(v, he.to, static_cast<Port>(i + 1),
                           he.reverse_port);
    }
  fp_edges_ = fp;
}

// Materializes every edge: a cold convenience for tools, traces and tests.
// Marked as a boundary so the call graph's by-name resolution does not
// route hot accessors that share the name (ComponentGraph::edges) here.
DYNDISP_COLD
std::vector<Graph::Edge> Graph::edges() const {
  std::vector<Edge> result;
  edges_into(result);
  return result;
}

void Graph::edges_into(std::vector<Edge>& out) const {
  out.clear();
  out.reserve(edge_count_);
  for (NodeId u = 0; u < adj_.size(); ++u) {
    for (std::size_t i = 0; i < adj_[u].size(); ++i) {
      const HalfEdge& he = adj_[u][i];
      if (u < he.to) {
        out.push_back(Edge{u, he.to, static_cast<Port>(i + 1),
                           he.reverse_port});
      }
    }
  }
}

void Graph::reset_assembly(std::size_t n) {
  // clear() per row (not adj_.assign) keeps each row's heap block for the
  // refill; shrinking drops surplus rows' storage only when n shrinks.
  adj_.resize(n);
  for (auto& row : adj_) row.clear();
  edge_count_ = 0;
  fp_edges_ = 0;
}

void Graph::commit_assembly(std::size_t edge_count, std::uint64_t fp_edges) {
  edge_count_ = edge_count;
  fp_edges_ = fp_edges;
  assert(validate().empty() && "bulk assembly produced an invalid graph");
}

bool Graph::changed_nodes_into(const Graph& prev, std::vector<NodeId>& out,
                               std::size_t cap) const {
  out.clear();
  if (adj_.size() != prev.adj_.size()) return false;
  for (NodeId v = 0; v < adj_.size(); ++v) {
    if (adj_[v] == prev.adj_[v]) continue;
    if (out.size() >= cap) return false;
    out.push_back(v);
  }
  return true;
}

std::string Graph::validate() const {
  // Error strings are formatted only on failure: this runs once per round
  // on every adversary-emitted graph, so the success path must stay
  // allocation-free (a stream per half-edge used to dominate validation).
  std::size_t half_edges = 0;
  for (NodeId v = 0; v < adj_.size(); ++v) {
    half_edges += adj_[v].size();
    for (std::size_t i = 0; i < adj_[v].size(); ++i) {
      const HalfEdge& he = adj_[v][i];
      if (he.to >= adj_.size()) {
        return "node " + std::to_string(v) + " port " + std::to_string(i + 1) +
               " points outside graph";
      }
      if (he.to == v) {
        return "self-loop at node " + std::to_string(v);
      }
      if (he.reverse_port == kInvalidPort ||
          he.reverse_port > adj_[he.to].size()) {
        return "node " + std::to_string(v) + " port " + std::to_string(i + 1) +
               " has bad reverse port";
      }
      const HalfEdge& back = adj_[he.to][he.reverse_port - 1];
      if (back.to != v || back.reverse_port != static_cast<Port>(i + 1)) {
        return "reverse port mismatch on edge {" + std::to_string(v) + "," +
               std::to_string(he.to) + "}";
      }
      for (std::size_t j = i + 1; j < adj_[v].size(); ++j) {
        if (adj_[v][j].to == he.to) {
          return "parallel edge {" + std::to_string(v) + "," +
                 std::to_string(he.to) + "}";
        }
      }
    }
  }
  if (half_edges != 2 * edge_count_) {
    return "edge_count out of sync with adjacency";
  }
  return {};
}

}  // namespace dyndisp
