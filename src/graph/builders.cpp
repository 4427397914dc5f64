#include "graph/builders.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <queue>

#include "util/contract.h"
#include "util/parallel.h"

namespace dyndisp::builders {

Graph path(std::size_t n) {
  assert(n >= 1);
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

Graph cycle(std::size_t n) {
  assert(n >= 3);
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  g.add_edge(static_cast<NodeId>(n - 1), 0);
  return g;
}

Graph star(std::size_t n) {
  assert(n >= 1);
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) g.add_edge(0, v);
  return g;
}

Graph complete(std::size_t n) {
  assert(n >= 1);
  Graph g(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
  return g;
}

Graph complete_bipartite(std::size_t a, std::size_t b) {
  Graph g(a + b);
  for (NodeId u = 0; u < a; ++u)
    for (NodeId v = 0; v < b; ++v) g.add_edge(u, static_cast<NodeId>(a + v));
  return g;
}

Graph grid(std::size_t rows, std::size_t cols) {
  assert(rows >= 1 && cols >= 1);
  Graph g(rows * cols);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return g;
}

Graph torus(std::size_t rows, std::size_t cols) {
  assert(rows >= 3 && cols >= 3);
  Graph g(rows * cols);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      g.add_edge(id(r, c), id(r, (c + 1) % cols));
      g.add_edge(id(r, c), id((r + 1) % rows, c));
    }
  }
  return g;
}

Graph hypercube(std::size_t d) {
  assert(d >= 1 && d < 32);
  const std::size_t n = std::size_t{1} << d;
  Graph g(n);
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t bit = 0; bit < d; ++bit) {
      const NodeId u = v ^ static_cast<NodeId>(1u << bit);
      if (v < u) g.add_edge(v, u);
    }
  }
  return g;
}

Graph binary_tree(std::size_t n) {
  assert(n >= 1);
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) g.add_edge((v - 1) / 2, v);
  return g;
}

Graph lollipop(std::size_t m, std::size_t p) {
  assert(m >= 1);
  Graph g(m + p);
  for (NodeId u = 0; u < m; ++u)
    for (NodeId v = u + 1; v < m; ++v) g.add_edge(u, v);
  for (std::size_t i = 0; i < p; ++i) {
    const NodeId tail = static_cast<NodeId>(m + i);
    g.add_edge(tail == m ? static_cast<NodeId>(m - 1) : tail - 1, tail);
  }
  return g;
}

Graph random_tree(std::size_t n, Rng& rng) {
  assert(n >= 1);
  Graph g(n);
  if (n == 1) return g;
  if (n == 2) {
    g.add_edge(0, 1);
    return g;
  }
  // Decode a uniformly random Prufer sequence: repeatedly join the smallest
  // remaining leaf to the next sequence element.
  std::vector<NodeId> prufer(n - 2);
  for (auto& x : prufer) x = static_cast<NodeId>(rng.below(n));
  std::vector<std::size_t> deg(n, 1);
  for (NodeId x : prufer) ++deg[x];
  // deg[v] is exactly v's final tree degree, so every adjacency list can be
  // sized once up front instead of growing through add_edge.
  for (NodeId v = 0; v < n; ++v) g.reserve_ports(v, deg[v]);
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> leaves;
  for (NodeId v = 0; v < n; ++v)
    if (deg[v] == 1) leaves.push(v);
  for (NodeId x : prufer) {
    const NodeId leaf = leaves.top();
    leaves.pop();
    g.add_edge(leaf, x);
    if (--deg[x] == 1) leaves.push(x);
  }
  const NodeId a = leaves.top();
  leaves.pop();
  const NodeId b = leaves.top();
  g.add_edge(a, b);
  return g;
}

Graph random_connected(std::size_t n, std::size_t extra_edges, Rng& rng) {
  Graph g = random_tree(n, rng);
  const std::size_t max_edges = n * (n - 1) / 2;
  std::size_t budget = std::min(extra_edges, max_edges - g.edge_count());
  std::size_t attempts = 0;
  const std::size_t attempt_cap = 50 * (budget + 1) + 100;
  while (budget > 0 && attempts++ < attempt_cap) {
    const NodeId u = static_cast<NodeId>(rng.below(n));
    const NodeId v = static_cast<NodeId>(rng.below(n));
    if (u == v || g.has_edge(u, v)) continue;
    g.add_edge(u, v);
    --budget;
  }
  // Fall back to a deterministic sweep when rejection sampling stalls
  // (dense graphs): add the lexicographically first missing edges.
  if (budget > 0) {
    for (NodeId u = 0; u < n && budget > 0; ++u)
      for (NodeId v = u + 1; v < n && budget > 0; ++v)
        if (!g.has_edge(u, v)) {
          g.add_edge(u, v);
          --budget;
        }
  }
  return g;
}

Graph random_connected_p(std::size_t n, double p, Rng& rng) {
  Graph g = random_tree(n, rng);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v)
      if (!g.has_edge(u, v) && rng.chance(p)) g.add_edge(u, v);
  return g;
}

namespace {

/// Open-addressing membership over canonical (min<<32|max) edge keys; the
/// key is never the empty sentinel because min < max forces the high word
/// below 0xffffffff.
constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

std::uint64_t edge_key(std::uint32_t u, std::uint32_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
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

}  // namespace

DYNDISP_HOT
void random_connected_counter(std::size_t n, std::size_t extra_edges,
                              std::uint64_t seed, std::uint64_t draw,
                              ThreadPool* pool, CounterBuildScratch& s,
                              Graph& out) {
  assert(n >= 1);
  if (n == 1) {
    // No Prüfer sequence and no edge: the lone node is the whole graph.
    out.reset_assembly(1);
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
  std::size_t table_size = 1;
  while (table_size < 2 * (m_target + 1)) table_size <<= 1;
  if (s.table.size() != table_size)
    s.table.assign(table_size, kEmptySlot);
  else
    std::fill(s.table.begin(), s.table.end(), kEmptySlot);
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

  // 4. Incidence CSR over final degrees; canonical slot order at every node
  //    is edge-id order, the anchor the port permutation shuffles from.
  //    Each edge records the slot of both its sides, so the port passes
  //    below read ports straight off the slots.
  s.deg.assign(n, 0);
  for (std::size_t e = 0; e < m; ++e) {
    ++s.deg[s.eu[e]];
    ++s.deg[s.ev[e]];
  }
  s.offsets.resize(n + 1);
  s.offsets[0] = 0;
  for (std::size_t v = 0; v < n; ++v) s.offsets[v + 1] = s.offsets[v] + s.deg[v];
  s.cursor.assign(s.offsets.begin(), s.offsets.end() - 1);
  s.inc.resize(2 * m);
  s.su.resize(m);
  s.sv.resize(m);
  for (std::size_t e = 0; e < m; ++e) {
    s.su[e] = s.cursor[s.eu[e]]++;
    s.sv[e] = s.cursor[s.ev[e]]++;
    s.inc[s.su[e]] = static_cast<std::uint32_t>(e);
    s.inc[s.sv[e]] = static_cast<std::uint32_t>(e);
  }

  // 5. Per-node Fisher-Yates port permutation from the node's forked
  //    stream, written into each node's own CSR segment only (lanes write
  //    disjoint contiguous ranges, never a shared line but at a boundary).
  s.slot_port.resize(2 * m);
  parallel_for(pool, n, [&](std::size_t v) {
    const std::size_t off = s.offsets[v];
    const std::size_t d = s.offsets[v + 1] - off;
    Port* seg = s.slot_port.data() + off;
    for (std::size_t i = 0; i < d; ++i) seg[i] = static_cast<Port>(i + 1);
    const CounterRng node = port_rng.fork(v);
    for (std::size_t j = d; j > 1; --j)
      std::swap(seg[j - 1], seg[node.below(j, j)]);
  });

  // 6. Row fill (needs both sides' ports, hence the barrier between the
  //    passes) straight into the recycled adjacency rows, then one XOR
  //    sweep for the fingerprint.
  out.reset_assembly(n);
  parallel_for(pool, n, [&](std::size_t v) {
    const std::size_t off = s.offsets[v];
    const std::size_t d = s.offsets[v + 1] - off;
    std::vector<HalfEdge>& row = out.assembly_row(static_cast<NodeId>(v));
    row.resize(d);
    for (std::size_t i = 0; i < d; ++i) {
      const std::uint32_t e = s.inc[off + i];
      const bool at_u = s.eu[e] == v;
      const NodeId to = at_u ? s.ev[e] : s.eu[e];
      const Port back = s.slot_port[at_u ? s.sv[e] : s.su[e]];
      row[s.slot_port[off + i] - 1] = HalfEdge{to, back};
    }
  });
  std::uint64_t fp = 0;
  for (std::size_t e = 0; e < m; ++e)
    fp ^= fp_edge_term(s.eu[e], s.ev[e], s.slot_port[s.su[e]],
                       s.slot_port[s.sv[e]]);
  out.commit_assembly(m, fp);
}

}  // namespace dyndisp::builders
