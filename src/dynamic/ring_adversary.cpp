#include "dynamic/ring_adversary.h"

#include <algorithm>
#include <stdexcept>

#include "util/contract.h"

namespace dyndisp {

namespace {

/// The worst edge to cut (see the header for the closed form), or n to
/// keep the full ring.
std::size_t worst_edge(std::size_t n, const Configuration& conf) {
  NodeId heaviest = kInvalidNode;
  std::size_t heaviest_count = 1;
  for (NodeId v = 0; v < n; ++v) {
    if (conf.count_at(v) > heaviest_count) {
      heaviest_count = conf.count_at(v);
      heaviest = v;
    }
  }
  if (heaviest == kInvalidNode || conf.occupied_count() >= n) return n;

  // Both walks stop: an empty node exists, and h itself is occupied.
  std::size_t a = 1;
  while (conf.count_at(static_cast<NodeId>((heaviest + a) % n)) != 0) ++a;
  std::size_t b = 1;
  while (conf.count_at(static_cast<NodeId>((heaviest + n - b) % n)) != 0) ++b;

  std::size_t best_edge = n;
  std::size_t best_score = 0;
  for (std::size_t e = 0; e < n; ++e) {
    const std::size_t cw_offset = (e + n - heaviest) % n;  // e - h
    const std::size_t ccw_offset = (heaviest + n - e) % n;  // h - e
    std::size_t score = std::min(a, b);
    if (cw_offset < a)
      score = b;
    else if (ccw_offset >= 1 && ccw_offset <= b)
      score = a;
    if (score > best_score) {
      best_score = score;
      best_edge = e;
    }
  }
  return best_edge;
}

/// Fills `out` with the ring minus edge `cut` (cut == n keeps every edge),
/// port-for-port equal to adding edges (e, e+1) with add_edge in ascending
/// e. Each node therefore numbers its edges in ascending edge id: node
/// v >= 1 has edge v-1 (to v-1) on port 1 and edge v (to v+1) on port 2,
/// node 0 has edge 0 (to 1) on port 1 and edge n-1 (to n-1) on port 2, and
/// a node that lost one of its edges keeps the other on port 1.
void emit_ring_without(std::size_t n, std::size_t cut, Graph& out) {
  const auto prev_edge = [n](std::size_t v) { return (v + n - 1) % n; };
  const std::size_t m = cut == n ? n : n - 1;
  const auto [off, slots] = out.begin_assembly(n, 2 * m);
  off[0] = 0;
  for (NodeId v = 0; v < n; ++v)
    off[v + 1] = off[v] + (v == cut || prev_edge(v) == cut ? 1 : 2);
  std::uint64_t fp_edges = 0;
  for (std::size_t e = 0; e < n; ++e) {
    if (e == cut) continue;
    const auto u = static_cast<NodeId>(e);
    const auto w = static_cast<NodeId>((e + 1) % n);
    // e is u's clockwise edge and w's counter-clockwise edge.
    const Port pu = u != 0 && prev_edge(u) != cut ? 2 : 1;
    const Port pw = w == 0 && w != cut ? 2 : 1;
    slots[off[u] + pu - 1] = HalfEdge{w, pw};
    slots[off[w] + pw - 1] = HalfEdge{u, pu};
    fp_edges ^= fp_edge_term(u, w, pu, pw);
  }
  out.commit_assembly(m, fp_edges);
}

}  // namespace

RingAdversary::RingAdversary(std::size_t n, Strategy strategy,
                             std::uint64_t seed)
    : n_(n), strategy_(strategy), rng_(seed) {
  if (n < 3)
    throw std::invalid_argument("ring adversary: a ring needs at least 3 "
                                "nodes, got n=" + std::to_string(n));
}

std::string RingAdversary::name() const {
  switch (strategy_) {
    case Strategy::kRandomEdge:
      return "dynamic-ring(random-edge)";
    case Strategy::kWorstEdge:
      return "dynamic-ring(worst-edge)";
    case Strategy::kFixedRing:
      return "static-ring";
  }
  return "dynamic-ring";
}

DYNDISP_HOT
void RingAdversary::next_graph_into(Round, const Configuration& conf,
                                    Graph& out) {
  std::size_t cut = n_;
  switch (strategy_) {
    case Strategy::kFixedRing:
      break;
    case Strategy::kRandomEdge:
      cut = rng_.below(n_);
      break;
    case Strategy::kWorstEdge:
      cut = worst_edge(n_, conf);
      break;
  }
  emit_ring_without(n_, cut, out);
}

}  // namespace dyndisp
