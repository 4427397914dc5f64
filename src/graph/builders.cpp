#include "graph/builders.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "util/contract.h"
#include "util/parallel.h"

namespace dyndisp::builders {

namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

/// Open-addressing membership over canonical (min<<32|max) edge keys; the
/// key is never the empty sentinel because min < max forces the high word
/// below 0xffffffff.
constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

std::uint64_t edge_key(std::uint32_t u, std::uint32_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Empties `table` and sizes it to a power of two that keeps the load
/// factor of `max_keys` keys at or below 1/2, reusing its storage.
void table_reset(std::vector<std::uint64_t>& table, std::size_t max_keys) {
  std::size_t size = 1;
  while (size < 2 * (max_keys + 1)) size <<= 1;
  table.assign(size, kEmptySlot);
}

/// Inserts `key`; false when already present. `table` is a power of two.
bool table_insert(std::vector<std::uint64_t>& table, std::uint64_t key) {
  const std::size_t mask = table.size() - 1;
  std::size_t h = fp_mix(key) & mask;
  while (table[h] != kEmptySlot) {
    if (table[h] == key) return false;
    h = (h + 1) & mask;
  }
  table[h] = key;
  return true;
}

bool table_contains(const std::vector<std::uint64_t>& table,
                    std::uint64_t key) {
  const std::size_t mask = table.size() - 1;
  for (std::size_t h = fp_mix(key) & mask; table[h] != kEmptySlot;
       h = (h + 1) & mask)
    if (table[h] == key) return true;
  return false;
}

/// Appends the edges of a uniform random labeled tree on n >= 1 nodes, in
/// the order random_tree numbers their ports: a random Prüfer sequence
/// decoded by repeatedly joining the smallest remaining leaf to the next
/// sequence element.
void random_tree_edges(std::size_t n, Rng& rng, EdgeList& edges) {
  if (n == 1) return;
  if (n == 2) {
    edges.emplace_back(0, 1);
    return;
  }
  std::vector<NodeId> prufer(n - 2);
  for (auto& x : prufer) x = static_cast<NodeId>(rng.below(n));
  std::vector<std::size_t> deg(n, 1);
  for (NodeId x : prufer) ++deg[x];
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> leaves;
  for (NodeId v = 0; v < n; ++v)
    if (deg[v] == 1) leaves.push(v);
  for (NodeId x : prufer) {
    const NodeId leaf = leaves.top();
    leaves.pop();
    edges.emplace_back(leaf, x);
    if (--deg[x] == 1) leaves.push(x);
  }
  const NodeId a = leaves.top();
  leaves.pop();
  edges.emplace_back(a, leaves.top());
}

}  // namespace

Graph path(std::size_t n) {
  assert(n >= 1);
  EdgeList edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return Graph::from_edges(n, edges);
}

Graph cycle(std::size_t n) {
  assert(n >= 3);
  EdgeList edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  edges.emplace_back(static_cast<NodeId>(n - 1), 0);
  return Graph::from_edges(n, edges);
}

Graph star(std::size_t n) {
  assert(n >= 1);
  EdgeList edges;
  for (NodeId v = 1; v < n; ++v) edges.emplace_back(0, v);
  return Graph::from_edges(n, edges);
}

Graph complete(std::size_t n) {
  assert(n >= 1);
  EdgeList edges;
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  return Graph::from_edges(n, edges);
}

Graph complete_bipartite(std::size_t a, std::size_t b) {
  EdgeList edges;
  for (NodeId u = 0; u < a; ++u)
    for (NodeId v = 0; v < b; ++v)
      edges.emplace_back(u, static_cast<NodeId>(a + v));
  return Graph::from_edges(a + b, edges);
}

Graph grid(std::size_t rows, std::size_t cols) {
  assert(rows >= 1 && cols >= 1);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  EdgeList edges;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return Graph::from_edges(rows * cols, edges);
}

Graph torus(std::size_t rows, std::size_t cols) {
  assert(rows >= 3 && cols >= 3);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  EdgeList edges;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      edges.emplace_back(id(r, c), id(r, (c + 1) % cols));
      edges.emplace_back(id(r, c), id((r + 1) % rows, c));
    }
  }
  return Graph::from_edges(rows * cols, edges);
}

Graph hypercube(std::size_t d) {
  assert(d >= 1 && d < 32);
  const std::size_t n = std::size_t{1} << d;
  EdgeList edges;
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t bit = 0; bit < d; ++bit) {
      const NodeId u = v ^ static_cast<NodeId>(1u << bit);
      if (v < u) edges.emplace_back(v, u);
    }
  }
  return Graph::from_edges(n, edges);
}

Graph binary_tree(std::size_t n) {
  assert(n >= 1);
  EdgeList edges;
  for (NodeId v = 1; v < n; ++v) edges.emplace_back((v - 1) / 2, v);
  return Graph::from_edges(n, edges);
}

Graph lollipop(std::size_t m, std::size_t p) {
  assert(m >= 1);
  EdgeList edges;
  for (NodeId u = 0; u < m; ++u)
    for (NodeId v = u + 1; v < m; ++v) edges.emplace_back(u, v);
  for (std::size_t i = 0; i < p; ++i) {
    const NodeId tail = static_cast<NodeId>(m + i);
    edges.emplace_back(tail == m ? static_cast<NodeId>(m - 1) : tail - 1,
                       tail);
  }
  return Graph::from_edges(m + p, edges);
}

Graph random_tree(std::size_t n, Rng& rng) {
  assert(n >= 1);
  EdgeList edges;
  random_tree_edges(n, rng, edges);
  return Graph::from_edges(n, edges);
}

Graph random_connected(std::size_t n, std::size_t extra_edges, Rng& rng) {
  assert(n >= 1);
  EdgeList edges;
  random_tree_edges(n, rng, edges);
  const std::size_t max_edges = n * (n - 1) / 2;
  std::size_t budget = std::min(extra_edges, max_edges - edges.size());
  std::vector<std::uint64_t> table;
  table_reset(table, edges.size() + budget);
  for (const auto& [u, v] : edges) table_insert(table, edge_key(u, v));
  std::size_t attempts = 0;
  const std::size_t attempt_cap = 50 * (budget + 1) + 100;
  while (budget > 0 && attempts++ < attempt_cap) {
    const NodeId u = static_cast<NodeId>(rng.below(n));
    const NodeId v = static_cast<NodeId>(rng.below(n));
    if (u == v || !table_insert(table, edge_key(u, v))) continue;
    edges.emplace_back(u, v);
    --budget;
  }
  // Fall back to a deterministic sweep when rejection sampling stalls
  // (dense graphs): add the lexicographically first missing edges.
  for (NodeId u = 0; u < n && budget > 0; ++u)
    for (NodeId v = u + 1; v < n && budget > 0; ++v)
      if (table_insert(table, edge_key(u, v))) {
        edges.emplace_back(u, v);
        --budget;
      }
  return Graph::from_edges(n, edges);
}

Graph random_connected_p(std::size_t n, double p, Rng& rng) {
  assert(n >= 1);
  EdgeList edges;
  random_tree_edges(n, rng, edges);
  std::vector<std::uint64_t> tree;
  table_reset(tree, edges.size());
  for (const auto& [u, v] : edges) table_insert(tree, edge_key(u, v));
  // Each pair is visited once, so only the tree's edges can already exist.
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v)
      if (!table_contains(tree, edge_key(u, v)) && rng.chance(p))
        edges.emplace_back(u, v);
  return Graph::from_edges(n, edges);
}

DYNDISP_HOT
void random_connected_counter(std::size_t n, std::size_t extra_edges,
                              std::uint64_t seed, std::uint64_t draw,
                              ThreadPool* pool, CounterBuildScratch& s,
                              Graph& out) {
  assert(n >= 1);
  if (n == 1) {
    // No Prüfer sequence and no edge: the lone node is the whole graph.
    out.assign_edges(1, {});
    return;
  }
  const CounterRng base(seed, draw);
  const CounterRng prufer_rng = base.fork(0);
  const CounterRng chord_rng = base.fork(1);
  const CounterRng port_rng = base.fork(2);

  std::size_t budget = std::min(extra_edges, n * (n - 1) / 2 - (n - 1));
  const std::size_t m_target = (n - 1) + budget;

  // 1. Prüfer sequence: one independent counter draw per position, so the
  //    fill fans out with no cross-lane state.
  s.prufer.resize(n - 2);
  parallel_for(pool, n - 2, [&](std::size_t i) {
    s.prufer[i] = static_cast<std::uint32_t>(prufer_rng.below(n, i));
  });

  // 2. Linear smallest-leaf decode, serial O(n): emits exactly the edges
  //    (in the same order) as random_tree's priority-queue decode for the
  //    same sequence -- the scan pointer always sits at the globally
  //    smallest available leaf, because a node below it that turns into a
  //    leaf is taken immediately via the x < ptr branch. The final leaf is
  //    joined to n-1, the largest label, which is never consumed earlier
  //    (the remaining tree keeps >= 2 leaves, so the largest is never the
  //    smallest one). test_builders pins this against a reference decode.
  s.deg.assign(n, 1);
  for (const std::uint32_t x : s.prufer) ++s.deg[x];
  // Edges land by index into the pre-sized lists (the hot-path contract:
  // resize refills warmed-up capacity, growth calls would reallocate); at
  // most m_target edges exist, and `m` below counts the ones emitted.
  s.eu.resize(m_target);
  s.ev.resize(m_target);
  std::size_t m = 0;
  {
    std::size_t ptr = 0;
    while (s.deg[ptr] != 1) ++ptr;
    std::size_t leaf = ptr;
    for (const std::uint32_t x : s.prufer) {
      s.eu[m] = static_cast<std::uint32_t>(leaf);
      s.ev[m] = x;
      ++m;
      if (--s.deg[x] == 1 && x < ptr) {
        leaf = x;
      } else {
        do {
          ++ptr;
        } while (s.deg[ptr] != 1);
        leaf = ptr;
      }
    }
    s.eu[m] = static_cast<std::uint32_t>(leaf);
    s.ev[m] = static_cast<std::uint32_t>(n - 1);
    ++m;
  }

  // 3. Chords: rejection sampling with O(1) membership. The registry's
  //    random family draws extra = Theta(n) chords, so membership runs
  //    through one open-addressing table (load factor <= 1/2, recycled
  //    across rounds) instead of per-attempt adjacency scans. Each attempt
  //    consumes exactly two indexed draws, accepted or not.
  table_reset(s.table, m_target);
  for (std::size_t e = 0; e < n - 1; ++e)
    table_insert(s.table, edge_key(s.eu[e], s.ev[e]));
  std::size_t attempts = 0;
  const std::size_t attempt_cap = 50 * (budget + 1) + 100;
  std::uint64_t t = 0;
  while (budget > 0 && attempts++ < attempt_cap) {
    const auto u = static_cast<std::uint32_t>(chord_rng.below(n, 2 * t));
    const auto v = static_cast<std::uint32_t>(chord_rng.below(n, 2 * t + 1));
    ++t;
    if (u == v || !table_insert(s.table, edge_key(u, v))) continue;
    s.eu[m] = u;
    s.ev[m] = v;
    ++m;
    --budget;
  }
  // Deterministic sweep fallback when rejection stalls (dense corner),
  // mirroring random_connected.
  for (std::uint32_t u = 0; u < n && budget > 0; ++u)
    for (std::uint32_t v = u + 1; v < n && budget > 0; ++v)
      if (table_insert(s.table, edge_key(u, v))) {
        s.eu[m] = u;
        s.ev[m] = v;
        ++m;
        --budget;
      }

  // 4. The graph's own row offsets over final degrees, written straight
  //    into `out`, and every edge's two sides staged at their canonical
  //    slots (edge-id order at every node, the anchor the port permutation
  //    shuffles from), each holding the twin side's slot. Each edge keeps
  //    both slots, so the fingerprint below folds edge by edge.
  s.deg.assign(n, 0);
  for (std::size_t e = 0; e < m; ++e) {
    ++s.deg[s.eu[e]];
    ++s.deg[s.ev[e]];
  }
  const auto [off, slots] = out.begin_assembly(n, 2 * m);
  off[0] = 0;
  for (std::size_t v = 0; v < n; ++v) off[v + 1] = off[v] + s.deg[v];
  s.cursor.assign(off.begin(), off.end() - 1);
  s.staged.resize(2 * m);
  s.su.resize(m);
  s.sv.resize(m);
  for (std::size_t e = 0; e < m; ++e) {
    const std::uint32_t su = s.cursor[s.eu[e]]++;
    const std::uint32_t sv = s.cursor[s.ev[e]]++;
    s.staged[su] = HalfEdge{s.ev[e], static_cast<Port>(sv)};
    s.staged[sv] = HalfEdge{s.eu[e], static_cast<Port>(su)};
    s.su[e] = su;
    s.sv[e] = sv;
  }

  // 5. Per-node Fisher-Yates port permutation from the node's forked
  //    stream, written into each node's own row of slots only (lanes write
  //    disjoint contiguous ranges, never a shared line but at a boundary).
  s.slot_port.resize(2 * m);
  parallel_for(pool, n, [&](std::size_t v) {
    const std::size_t d = off[v + 1] - off[v];
    Port* seg = s.slot_port.data() + off[v];
    for (std::size_t i = 0; i < d; ++i) seg[i] = static_cast<Port>(i + 1);
    const CounterRng node = port_rng.fork(v);
    for (std::size_t j = d; j > 1; --j)
      std::swap(seg[j - 1], seg[node.below(j, j)]);
  });

  // 6. Row fill (it reads the twin's port from another row, hence the
  //    barrier after step 5): each staged side lands in its own row at its
  //    port, carrying its twin's port. One fan-out, row-local writes.
  parallel_for(pool, n, [&](std::size_t v) {
    HalfEdge* row = slots.data() + off[v];
    for (std::size_t i = off[v]; i < off[v + 1]; ++i) {
      const HalfEdge side = s.staged[i];
      row[s.slot_port[i] - 1] =
          HalfEdge{side.to, s.slot_port[side.reverse_port]};
    }
  });
  // The fingerprint folds every edge once, in edge order, from its two
  // canonical slots: no per-half-edge test for which side owns the edge,
  // and two reads of slot_port per edge, the only ones out of order. XOR
  // is order-free, so the value equals a sweep over the rows.
  std::uint64_t fp = 0;
  for (std::size_t e = 0; e < m; ++e)
    fp ^= fp_edge_term(s.eu[e], s.ev[e], s.slot_port[s.su[e]],
                       s.slot_port[s.sv[e]]);
  out.commit_assembly(m, fp);
}

}  // namespace dyndisp::builders
