#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/contract.h"
#include "util/parallel.h"

namespace dyndisp {

namespace {

/// The most half-edges the offsets (and, while assign_edges runs, the
/// reverse-port fields holding raw slot indices) can address.
constexpr std::size_t kMaxHalfEdges =
    std::numeric_limits<Graph::Offset>::max();

/// Inserts `he` as the new last port of v's row: every later row shifts
/// one slot up. O(n + m).
void insert_into_row(std::vector<Graph::Offset>& offsets,
                     std::vector<HalfEdge>& half, NodeId v, HalfEdge he) {
  half.insert(half.begin() + offsets[v + 1], he);
  for (std::size_t w = v + 1; w < offsets.size(); ++w) ++offsets[w];
}

/// Erases port `p` of v's row: every later slot shifts one down. O(n + m).
void erase_from_row(std::vector<Graph::Offset>& offsets,
                    std::vector<HalfEdge>& half, NodeId v, Port p) {
  half.erase(half.begin() + (offsets[v] + p - 1));
  for (std::size_t w = v + 1; w < offsets.size(); ++w) --offsets[w];
}

}  // namespace

Graph Graph::from_edges(std::size_t n,
                        const std::vector<std::pair<NodeId, NodeId>>& edges) {
  Graph g;
  g.assign_edges(n, edges);
  return g;
}

DYNDISP_HOT
void Graph::assign_edges(std::size_t n,
                         std::span<const std::pair<NodeId, NodeId>> edges) {
  assert(2 * edges.size() <= kMaxHalfEdges);
  // Degrees counted two slots up, so that after the prefix sum
  // offsets_[v + 1] is the start of v's row: the fill below then uses it as
  // v's cursor and leaves it at the row's end, which is its final value.
  offsets_.assign(n + 2, 0);
  for (const auto& [u, v] : edges) {
    assert(u < n && v < n);
    assert(u != v && "self-loops are not part of the model");
    ++offsets_[u + 2];
    ++offsets_[v + 2];
  }
  for (std::size_t i = 2; i < n + 2; ++i) offsets_[i] += offsets_[i - 1];
  half_.resize(2 * edges.size());
  // List order is port order at both endpoints. Neither row's start is
  // known mid-fill, so each side records its twin's raw slot as the
  // reverse port; the pass below turns slots into ports.
  for (const auto& [u, v] : edges) {
    const Offset su = offsets_[u + 1]++;
    const Offset sv = offsets_[v + 1]++;
    half_[su] = HalfEdge{v, static_cast<Port>(sv)};
    half_[sv] = HalfEdge{u, static_cast<Port>(su)};
  }
  offsets_.pop_back();
  std::uint64_t fp = 0;
  for (NodeId v = 0; v < n; ++v) {
    const Offset begin = offsets_[v];
    for (Offset s = begin; s < offsets_[v + 1]; ++s) {
      HalfEdge& he = half_[s];
      const auto p = static_cast<Port>(s - begin + 1);
      const auto q = static_cast<Port>(he.reverse_port - offsets_[he.to] + 1);
      he.reverse_port = q;
      if (v > he.to) continue;
      fp ^= fp_edge_term(v, he.to, p, q);
      // add_edge's has_edge test at the moment the edge was listed: the
      // shorter of the two rows as filled so far, i.e. ports below p at v
      // or below q at he.to, must not already join the pair.
      assert(([&] {
               const bool at_v = p <= q;
               const HalfEdge* row =
                   half_.data() + offsets_[at_v ? v : he.to];
               const NodeId other = at_v ? he.to : v;
               for (Port i = 0; i + 1 < (at_v ? p : q); ++i)
                 if (row[i].to == other) return false;
               return true;
             }()) &&
             "parallel edges are not part of the model");
    }
  }
  edge_count_ = edges.size();
  fp_edges_ = fp;
}

Graph Graph::from_port_edges(std::size_t n, const std::vector<Edge>& edges) {
  // The checks that need no storage come first; then only the n + 1
  // offsets are sized before every port is checked against its row.
  if (n > kInvalidNode)
    throw std::invalid_argument("from_port_edges: node count " +
                                std::to_string(n) + " beyond NodeId");
  if (edges.size() > kMaxHalfEdges / 2)
    throw std::invalid_argument("from_port_edges: too many edges");
  for (const Edge& e : edges) {
    if (e.u >= n || e.v >= n)
      throw std::invalid_argument("from_port_edges: endpoint out of range");
    if (e.u == e.v)
      throw std::invalid_argument("from_port_edges: self-loop");
    if (e.port_u == kInvalidPort || e.port_v == kInvalidPort)
      throw std::invalid_argument("from_port_edges: invalid port");
  }
  Graph g(n);
  // A node's degree is its number of listed edges. A port above it names a
  // slot the row does not have -- a gap below it, or a hostile size.
  for (const Edge& e : edges) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (const Edge& e : edges) {
    if (e.port_u > g.offsets_[e.u + 1] || e.port_v > g.offsets_[e.v + 1])
      throw std::invalid_argument(
          "from_port_edges: port gap at node " +
          std::to_string(e.port_u > g.offsets_[e.u + 1] ? e.u : e.v));
  }
  for (std::size_t i = 1; i <= n; ++i) g.offsets_[i] += g.offsets_[i - 1];
  // deg(v) ports in [1, deg(v)] fill v's deg(v) slots only if no two of
  // them coincide, so rejecting duplicates also rules out gaps.
  g.half_.assign(2 * edges.size(), HalfEdge{});
  for (const Edge& e : edges) {
    HalfEdge& at_u = g.half_[g.offsets_[e.u] + e.port_u - 1];
    HalfEdge& at_v = g.half_[g.offsets_[e.v] + e.port_v - 1];
    if (at_u.to != kInvalidNode || at_v.to != kInvalidNode)
      throw std::invalid_argument("from_port_edges: duplicate port");
    at_u = HalfEdge{e.v, e.port_v};
    at_v = HalfEdge{e.u, e.port_u};
    g.fp_edges_ ^= fp_edge_term(e.u, e.v, e.port_u, e.port_v);
  }
  g.edge_count_ = edges.size();
  // Parallel edges are the one invariant the fill cannot see.
  if (std::string err = g.validate(); !err.empty())
    throw std::invalid_argument("from_port_edges: " + err);
  return g;
}

std::size_t Graph::max_degree() const {
  std::size_t d = 0;
  for (NodeId v = 0; v < node_count(); ++v) d = std::max(d, degree(v));
  return d;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  // Scan the lower-degree endpoint: membership is symmetric, and hub-and-
  // spoke graphs (stars, blobs) make the asymmetry a k-fold saving.
  if (degree(v) < degree(u)) std::swap(u, v);
  for (const HalfEdge& he : incident(u))
    if (he.to == v) return true;
  return false;
}

Port Graph::port_to(NodeId u, NodeId v) const {
  // Same lower-degree trick: v's half-edge back to u records the port at u
  // as its reverse_port, so scanning the shorter list still answers for u.
  if (degree(v) < degree(u)) {
    for (const HalfEdge& he : incident(v))
      if (he.to == u) return he.reverse_port;
    return kInvalidPort;
  }
  const std::span<const HalfEdge> row = incident(u);
  for (std::size_t i = 0; i < row.size(); ++i)
    if (row[i].to == v) return static_cast<Port>(i + 1);
  return kInvalidPort;
}

std::pair<Port, Port> Graph::add_edge(NodeId u, NodeId v) {
  assert(u < node_count() && v < node_count());
  assert(u != v && "self-loops are not part of the model");
  assert(!has_edge(u, v) && "parallel edges are not part of the model");
  assert(half_.size() + 2 <= kMaxHalfEdges);
  const auto pu = static_cast<Port>(degree(u) + 1);
  const auto pv = static_cast<Port>(degree(v) + 1);
  insert_into_row(offsets_, half_, u, HalfEdge{v, pv});
  insert_into_row(offsets_, half_, v, HalfEdge{u, pu});
  fp_edges_ ^= fp_edge_term(u, v, pu, pv);
  ++edge_count_;
  return {pu, pv};
}

bool Graph::remove_edge(NodeId u, NodeId v) {
  const Port pu = port_to(u, v);
  if (pu == kInvalidPort) return false;
  const Port pv = half_edge(u, pu).reverse_port;
  fp_edges_ ^= fp_edge_term(u, v, pu, pv);

  auto drop = [&](NodeId a, Port pa) {
    // Port compaction relabels every edge sitting above pa at `a`, so their
    // fingerprint terms change: XOR the old terms out before the shift and
    // the new ones back in after. The removed edge itself sits AT pa (never
    // above it), so its stale twin at the second drop is not re-counted.
    for (Port p = pa + 1; p <= degree(a); ++p) {
      const HalfEdge& he = half_edge(a, p);
      fp_edges_ ^= fp_edge_term(a, he.to, p, he.reverse_port);
    }
    erase_from_row(offsets_, half_, a, pa);
    // Compact: every half-edge that used to sit at a port > pa shifts down;
    // fix the reverse_port recorded at the far endpoint.
    for (Port p = pa; p <= degree(a); ++p) {
      const HalfEdge& he = half_edge(a, p);
      half_[offsets_[he.to] + he.reverse_port - 1].reverse_port = p;
      fp_edges_ ^= fp_edge_term(a, he.to, p, he.reverse_port);
    }
  };
  drop(u, pu);
  // pv is still valid at v: dropping at u only rewrote reverse ports stored
  // at *other* endpoints of u's edges; the edge {u,v} itself is gone from u.
  drop(v, pv);
  --edge_count_;
  return true;
}

void Graph::permute_ports(NodeId v, const std::vector<std::size_t>& perm) {
  std::vector<HalfEdge> scratch;
  permute_ports(v, perm, scratch);
}

void Graph::permute_ports(NodeId v, const std::vector<std::size_t>& perm,
                          std::vector<HalfEdge>& scratch) {
  const std::span<HalfEdge> row(half_.data() + offsets_[v], degree(v));
  assert(perm.size() == row.size());
  // Every incident edge's port at v changes, so retire all of v's terms and
  // re-add them after the permutation (reverse ports elsewhere included).
  for (std::size_t i = 0; i < row.size(); ++i)
    fp_edges_ ^= fp_edge_term(v, row[i].to, static_cast<Port>(i + 1),
                              row[i].reverse_port);
  scratch.resize(row.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    assert(perm[i] < scratch.size());
    scratch[perm[i]] = row[i];
  }
  std::copy(scratch.begin(), scratch.end(), row.begin());
  for (std::size_t i = 0; i < row.size(); ++i) {
    const HalfEdge& he = row[i];
    half_[offsets_[he.to] + he.reverse_port - 1].reverse_port =
        static_cast<Port>(i + 1);
    fp_edges_ ^=
        fp_edge_term(v, he.to, static_cast<Port>(i + 1), he.reverse_port);
  }
}

void Graph::shuffle_ports(Rng& rng) {
  std::vector<std::size_t> perm;
  std::vector<HalfEdge> scratch;
  for (NodeId v = 0; v < node_count(); ++v) {
    perm.resize(degree(v));
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    rng.shuffle(perm);
    permute_ports(v, perm, scratch);
  }
}

DYNDISP_HOT
void Graph::shuffle_ports_counter(std::uint64_t seed, std::uint64_t draw,
                                  ThreadPool* pool) {
  const std::size_t n = node_count();
  const CounterRng streams(seed, draw);
  // new_port[s] is the new 1-based port of the half-edge currently in slot
  // s: each node permutes its own row's slots from its forked stream, so
  // the pass is lane-safe and order-independent.
  std::vector<Port> new_port(half_.size());
  parallel_for(pool, n, [&](std::size_t v) {
    Port* seg = new_port.data() + offsets_[v];
    const std::size_t d = degree(static_cast<NodeId>(v));
    for (std::size_t i = 0; i < d; ++i) seg[i] = static_cast<Port>(i + 1);
    const CounterRng node = streams.fork(v);
    for (std::size_t j = d; j > 1; --j)
      std::swap(seg[j - 1], seg[node.below(j, j)]);
  });
  // Relabeled rows are staged into a second array: the rebuild reads OTHER
  // nodes' old slots (for reverse ports), so writing half_ in place would
  // race across lanes. The rows keep their offsets.
  std::vector<HalfEdge> rebuilt(half_.size());
  parallel_for(pool, n, [&](std::size_t v) {
    const std::size_t base = offsets_[v];
    for (std::size_t s = base; s < offsets_[v + 1]; ++s) {
      const HalfEdge& he = half_[s];
      const Port nrev = new_port[offsets_[he.to] + he.reverse_port - 1];
      rebuilt[base + new_port[s] - 1] = HalfEdge{he.to, nrev};
    }
  });
  half_.swap(rebuilt);
  // Every port changed; rebuild the edge fingerprint in one sweep.
  std::uint64_t fp = 0;
  for (NodeId v = 0; v < n; ++v) {
    const std::span<const HalfEdge> row = incident(v);
    for (std::size_t i = 0; i < row.size(); ++i)
      if (v < row[i].to)
        fp ^= fp_edge_term(v, row[i].to, static_cast<Port>(i + 1),
                           row[i].reverse_port);
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
  for (NodeId u = 0; u < node_count(); ++u) {
    const std::span<const HalfEdge> row = incident(u);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (u < row[i].to) {
        out.push_back(Edge{u, row[i].to, static_cast<Port>(i + 1),
                           row[i].reverse_port});
      }
    }
  }
}

DYNDISP_HOT
Graph::Assembly Graph::begin_assembly(std::size_t n, std::size_t half_edges) {
  assert(half_edges <= kMaxHalfEdges);
  // resize (not assign): the caller overwrites every offset and slot, and
  // both arrays keep their capacity for the next round's refill.
  offsets_.resize(n + 1);
  half_.resize(half_edges);
  edge_count_ = 0;
  fp_edges_ = 0;
  return {offsets_, half_};
}

DYNDISP_HOT
void Graph::commit_assembly(std::size_t edge_count, std::uint64_t fp_edges) {
  edge_count_ = edge_count;
  fp_edges_ = fp_edges;
  // Asserts are on in every build, so every assembled graph is validated
  // here, once more than the engine's own round-graph check.
  assert(validate().empty() && "bulk assembly produced an invalid graph");
}

bool Graph::changed_nodes_into(const Graph& prev, std::vector<NodeId>& out,
                               std::size_t cap) const {
  out.clear();
  if (node_count() != prev.node_count()) return false;
  for (NodeId v = 0; v < node_count(); ++v) {
    if (std::ranges::equal(incident(v), prev.incident(v))) continue;
    if (out.size() >= cap) return false;
    out.push_back(v);
  }
  return true;
}

DYNDISP_HOT
std::string Graph::validate() const {
  // Error strings are formatted only on failure: this runs once per round
  // on every adversary-emitted graph, so the success path must stay
  // allocation-free (a stream per half-edge used to dominate validation).
  const std::size_t n = node_count();
  if (offsets_.empty() ? !half_.empty()
                       : offsets_.front() != 0 || offsets_.back() != half_.size())
    return "row offsets do not span the half-edge array";
  for (NodeId v = 0; v < n; ++v)
    if (offsets_[v + 1] < offsets_[v])
      return "row offsets decrease at node " + std::to_string(v);
  for (NodeId v = 0; v < n; ++v) {
    const Offset begin = offsets_[v];
    const Offset end = offsets_[v + 1];
    for (Offset s = begin; s < end; ++s) {
      const HalfEdge& he = half_[s];
      const auto p = static_cast<Port>(s - begin + 1);
      if (he.to >= n) {
        return "node " + std::to_string(v) + " port " + std::to_string(p) +
               " points outside graph";
      }
      if (he.to == v) {
        return "self-loop at node " + std::to_string(v);
      }
      if (he.reverse_port == kInvalidPort ||
          he.reverse_port > degree(he.to)) {
        return "node " + std::to_string(v) + " port " + std::to_string(p) +
               " has bad reverse port";
      }
      const HalfEdge& back = half_[offsets_[he.to] + he.reverse_port - 1];
      if (back.to != v || back.reverse_port != p) {
        return "reverse port mismatch on edge {" + std::to_string(v) + "," +
               std::to_string(he.to) + "}";
      }
      for (Offset t = s + 1; t < end; ++t) {
        if (half_[t].to == he.to) {
          return "parallel edge {" + std::to_string(v) + "," +
                 std::to_string(he.to) + "}";
        }
      }
    }
  }
  if (half_.size() != 2 * edge_count_) {
    return "edge_count out of sync with adjacency";
  }
  return {};
}

bool Graph::operator==(const Graph& other) const {
  // Empty and {0} offsets both mean zero nodes (and then no half-edges).
  return node_count() == other.node_count() &&
         (node_count() == 0 || offsets_ == other.offsets_) &&
         half_ == other.half_;
}

}  // namespace dyndisp
