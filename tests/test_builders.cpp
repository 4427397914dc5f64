// Tests for the graph family builders, including parameterized sweeps over
// sizes checking structural invariants of every family.
#include <gtest/gtest.h>

#include <ostream>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "graph/algorithms.h"
#include "graph/builders.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

using builders::binary_tree;
using builders::complete;
using builders::complete_bipartite;
using builders::cycle;
using builders::grid;
using builders::hypercube;
using builders::lollipop;
using builders::path;
using builders::random_connected;
using builders::random_connected_p;
using builders::random_tree;
using builders::star;
using builders::torus;

TEST(Builders, PathStructure) {
  const Graph g = path(5);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_EQ(g.degree(4), 1u);
  EXPECT_EQ(diameter(g), 4u);
  EXPECT_TRUE(is_tree(g));
}

TEST(Builders, SingleNodePath) {
  const Graph g = path(1);
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Builders, CycleStructure) {
  const Graph g = cycle(6);
  EXPECT_EQ(g.edge_count(), 6u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_EQ(diameter(g), 3u);
}

TEST(Builders, StarStructure) {
  const Graph g = star(7);
  EXPECT_EQ(g.edge_count(), 6u);
  EXPECT_EQ(g.degree(0), 6u);
  for (NodeId v = 1; v < 7; ++v) EXPECT_EQ(g.degree(v), 1u);
  EXPECT_EQ(diameter(g), 2u);
}

TEST(Builders, CompleteStructure) {
  const Graph g = complete(5);
  EXPECT_EQ(g.edge_count(), 10u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_EQ(diameter(g), 1u);
}

TEST(Builders, CompleteBipartiteStructure) {
  const Graph g = complete_bipartite(2, 3);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 6u);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(4), 2u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(Builders, GridStructure) {
  const Graph g = grid(3, 4);
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.edge_count(), 3u * 3 + 4u * 2);  // rows*(cols-1) + (rows-1)*cols
  EXPECT_EQ(g.degree(0), 2u);   // corner
  EXPECT_EQ(g.degree(5), 4u);   // interior (1,1)
  EXPECT_EQ(diameter(g), 5u);   // (3-1)+(4-1)
}

TEST(Builders, TorusStructure) {
  const Graph g = torus(3, 3);
  EXPECT_EQ(g.node_count(), 9u);
  EXPECT_EQ(g.edge_count(), 18u);
  for (NodeId v = 0; v < 9; ++v) EXPECT_EQ(g.degree(v), 4u);
}

TEST(Builders, HypercubeStructure) {
  const Graph g = hypercube(3);
  EXPECT_EQ(g.node_count(), 8u);
  EXPECT_EQ(g.edge_count(), 12u);
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(g.degree(v), 3u);
  EXPECT_EQ(diameter(g), 3u);
}

TEST(Builders, BinaryTreeStructure) {
  const Graph g = binary_tree(7);
  EXPECT_TRUE(is_tree(g));
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 3u);
  EXPECT_EQ(g.degree(6), 1u);
}

TEST(Builders, LollipopStructure) {
  const Graph g = lollipop(4, 3);
  EXPECT_EQ(g.node_count(), 7u);
  EXPECT_EQ(g.edge_count(), 6u + 3u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(6), 1u);  // tail end
}

TEST(Builders, RandomTreeIsTree) {
  Rng rng(101);
  for (std::size_t n : {1u, 2u, 3u, 5u, 17u, 64u}) {
    const Graph g = random_tree(n, rng);
    EXPECT_EQ(g.node_count(), n);
    EXPECT_TRUE(is_tree(g)) << "n=" << n;
  }
}

TEST(Builders, RandomTreesVary) {
  Rng rng(5);
  const Graph a = random_tree(12, rng);
  const Graph b = random_tree(12, rng);
  EXPECT_FALSE(a == b);  // overwhelmingly likely distinct
}

TEST(Builders, RandomConnectedEdgeBudget) {
  Rng rng(7);
  const Graph g = random_connected(20, 15, rng);
  EXPECT_EQ(g.edge_count(), 19u + 15u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(g.validate().empty());
}

TEST(Builders, RandomConnectedClampsToCompleteGraph) {
  Rng rng(7);
  const Graph g = random_connected(5, 1000, rng);
  EXPECT_EQ(g.edge_count(), 10u);  // K_5
}

TEST(Builders, RandomConnectedPPointMasses) {
  Rng rng(9);
  const Graph tree_only = random_connected_p(15, 0.0, rng);
  EXPECT_TRUE(is_tree(tree_only));
  const Graph full = random_connected_p(8, 1.0, rng);
  EXPECT_EQ(full.edge_count(), 28u);  // K_8
}

// ---- Parameterized sweep: every family yields valid connected graphs ----

struct FamilyCase {
  const char* name;
  std::size_t n_expected;
  Graph (*make)();
};

Graph make_path() { return path(9); }
Graph make_cycle() { return cycle(9); }
Graph make_star() { return star(9); }
Graph make_complete() { return complete(9); }
Graph make_bipartite() { return complete_bipartite(4, 5); }
Graph make_grid() { return grid(3, 3); }
Graph make_torus() { return torus(3, 3); }
Graph make_hypercube() { return hypercube(3); }  // n = 8
Graph make_btree() { return binary_tree(9); }
Graph make_lollipop() { return lollipop(5, 4); }

// Print a case as its name: gtest would otherwise dump its raw bytes,
// function pointers included, into the discovered test names, which
// would then change from build to build.
void PrintTo(const FamilyCase& c, std::ostream* os) { *os << c.name; }

class BuilderFamilyTest : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(BuilderFamilyTest, ValidAndConnected) {
  const Graph g = GetParam().make();
  EXPECT_EQ(g.node_count(), GetParam().n_expected);
  EXPECT_TRUE(g.validate().empty()) << g.validate();
  EXPECT_TRUE(is_connected(g));
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, BuilderFamilyTest,
    ::testing::Values(FamilyCase{"path", 9, make_path},
                      FamilyCase{"cycle", 9, make_cycle},
                      FamilyCase{"star", 9, make_star},
                      FamilyCase{"complete", 9, make_complete},
                      FamilyCase{"bipartite", 9, make_bipartite},
                      FamilyCase{"grid", 9, make_grid},
                      FamilyCase{"torus", 9, make_torus},
                      FamilyCase{"hypercube", 8, make_hypercube},
                      FamilyCase{"btree", 9, make_btree},
                      FamilyCase{"lollipop", 9, make_lollipop}),
    [](const ::testing::TestParamInfo<FamilyCase>& param_info) {
      return param_info.param.name;
    });

// Random families across sizes: validity + connectivity + determinism.
class RandomGraphSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RandomGraphSweep, ValidConnectedDeterministic) {
  const std::size_t n = GetParam();
  Rng rng1(n), rng2(n);
  const Graph a = random_connected(n, n / 2, rng1);
  const Graph b = random_connected(n, n / 2, rng2);
  EXPECT_TRUE(a.validate().empty());
  EXPECT_TRUE(is_connected(a));
  EXPECT_EQ(a, b);  // same seed, same graph
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomGraphSweep,
                         ::testing::Values(2, 3, 4, 8, 16, 33, 64, 100));

// ---------------------------------------------------------------------------
// CounterRng: the stateless indexed generator behind the flat builders.

TEST(CounterRng, IndexedDrawsAreStatelessAndOrderIndependent) {
  const CounterRng a(42, 7);
  const CounterRng b(42, 7);
  // Same (seed, stream, index) -> same value, regardless of query order.
  EXPECT_EQ(a.at(100), b.at(100));
  EXPECT_EQ(a.at(0), b.at(0));
  const std::uint64_t late = a.at(100);
  (void)a.at(3);
  (void)a.at(99);
  EXPECT_EQ(a.at(100), late);
}

TEST(CounterRng, DistinctSeedsStreamsAndForksDiverge) {
  const CounterRng base(42, 7);
  EXPECT_NE(base.at(5), CounterRng(43, 7).at(5));
  EXPECT_NE(base.at(5), CounterRng(42, 8).at(5));
  EXPECT_NE(base.fork(0).at(5), base.fork(1).at(5));
  EXPECT_EQ(base.fork(3).at(5), base.fork(3).at(5));
}

TEST(CounterRng, BelowStaysInRangeAndLooksUniform) {
  const CounterRng rng(9, 1);
  std::vector<std::size_t> buckets(10, 0);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const std::uint64_t x = rng.below(10, i);
    ASSERT_LT(x, 10u);
    ++buckets[x];
  }
  for (const std::size_t c : buckets) {
    EXPECT_GT(c, 800u);  // expectation 1000; crude 20% uniformity band
    EXPECT_LT(c, 1200u);
  }
}

// ---------------------------------------------------------------------------
// random_connected_counter vs an independently written reference: the
// builder uses a linear smallest-leaf Prufer decode, an open-addressing
// chord table, and fused CSR/port passes; the reference below re-derives the
// same graph from the same CounterRng streams with the textbook structures
// (priority-queue decode as in random_tree, std::set membership, direct
// port placement via from_port_edges). Byte equality of the two pins every
// stage of the flat builder against the simple semantics.

Graph reference_counter_build(std::size_t n, std::size_t extra_edges,
                              std::uint64_t seed, std::uint64_t draw) {
  const CounterRng base(seed, draw);
  const CounterRng prufer_rng = base.fork(0);
  const CounterRng chord_rng = base.fork(1);
  const CounterRng port_rng = base.fork(2);

  // Tree: priority-queue smallest-leaf Prufer decode (random_tree's shape).
  std::vector<std::uint32_t> prufer(n - 2);
  for (std::size_t i = 0; i < n - 2; ++i)
    prufer[i] = static_cast<std::uint32_t>(prufer_rng.below(n, i));
  std::vector<std::size_t> deg(n, 1);
  for (const std::uint32_t x : prufer) ++deg[x];
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<>> leaves;
  for (std::uint32_t v = 0; v < n; ++v)
    if (deg[v] == 1) leaves.push(v);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list;
  for (const std::uint32_t x : prufer) {
    const std::uint32_t leaf = leaves.top();
    leaves.pop();
    edge_list.emplace_back(leaf, x);
    if (--deg[x] == 1) leaves.push(x);
  }
  const std::uint32_t a = leaves.top();
  leaves.pop();
  edge_list.emplace_back(a, leaves.top());

  // Chords: identical draw schedule (two indexed draws per attempt, counted
  // whether accepted or not), std::set membership.
  auto key = [](std::uint32_t u, std::uint32_t v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  };
  std::set<std::uint64_t> seen;
  for (const auto& [u, v] : edge_list) seen.insert(key(u, v));
  std::size_t budget =
      std::min(extra_edges, n * (n - 1) / 2 - (n - 1));
  std::size_t attempts = 0;
  const std::size_t attempt_cap = 50 * (budget + 1) + 100;
  std::uint64_t t = 0;
  while (budget > 0 && attempts++ < attempt_cap) {
    const auto u = static_cast<std::uint32_t>(chord_rng.below(n, 2 * t));
    const auto v = static_cast<std::uint32_t>(chord_rng.below(n, 2 * t + 1));
    ++t;
    if (u == v || !seen.insert(key(u, v)).second) continue;
    edge_list.emplace_back(u, v);
    --budget;
  }
  for (std::uint32_t u = 0; u < n && budget > 0; ++u)
    for (std::uint32_t v = u + 1; v < n && budget > 0; ++v)
      if (seen.insert(key(u, v)).second) {
        edge_list.emplace_back(u, v);
        --budget;
      }

  // Ports: per node, slots in edge-id order carry a Fisher-Yates permutation
  // of 1..degree drawn from the node's forked stream.
  const std::size_t m = edge_list.size();
  std::vector<std::vector<std::uint32_t>> slots(n);  // node -> edge ids
  for (std::uint32_t e = 0; e < m; ++e) {
    slots[edge_list[e].first].push_back(e);
    slots[edge_list[e].second].push_back(e);
  }
  std::vector<Port> pu(m), pv(m);
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::size_t d = slots[v].size();
    std::vector<Port> seg(d);
    for (std::size_t i = 0; i < d; ++i) seg[i] = static_cast<Port>(i + 1);
    const CounterRng node = port_rng.fork(v);
    for (std::size_t j = d; j > 1; --j)
      std::swap(seg[j - 1], seg[node.below(j, j)]);
    for (std::size_t i = 0; i < d; ++i) {
      const std::uint32_t e = slots[v][i];
      if (edge_list[e].first == v)
        pu[e] = seg[i];
      else
        pv[e] = seg[i];
    }
  }
  std::vector<Graph::Edge> port_edges(m);
  for (std::uint32_t e = 0; e < m; ++e)
    port_edges[e] = Graph::Edge{edge_list[e].first, edge_list[e].second,
                                pu[e], pv[e]};
  return Graph::from_port_edges(n, port_edges);
}

class CounterBuilderDifferential
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CounterBuilderDifferential, MatchesReferenceByteForByte) {
  const std::size_t n = GetParam();
  builders::CounterBuildScratch scratch;
  for (const std::uint64_t seed : {1ull, 77ull}) {
    for (const std::uint64_t draw : {0ull, 3ull}) {
      Graph out;
      builders::random_connected_counter(n, n / 3, seed, draw,
                                         /*pool=*/nullptr, scratch, out);
      ASSERT_TRUE(out.validate().empty()) << "n=" << n << " seed=" << seed;
      EXPECT_TRUE(is_connected(out));
      const Graph ref = reference_counter_build(n, n / 3, seed, draw);
      ASSERT_EQ(out.fingerprint(), ref.fingerprint())
          << "n=" << n << " seed=" << seed << " draw=" << draw;
      ASSERT_TRUE(out == ref)
          << "n=" << n << " seed=" << seed << " draw=" << draw;
    }
  }
}

// Sizes bracket the parallel_for serial cutoff (192), plus small and
// degenerate shapes down to the single edge.
INSTANTIATE_TEST_SUITE_P(Sizes, CounterBuilderDifferential,
                         ::testing::Values(2, 3, 4, 9, 40, 130, 200, 450));

TEST(CounterBuilder, PoolAndSerialOutputsAreByteIdentical) {
  ThreadPool pool(3);
  builders::CounterBuildScratch s1, s2;
  for (const std::size_t n : {150u, 450u}) {  // straddles the 192 cutoff
    Graph serial, threaded;
    builders::random_connected_counter(n, n / 3, 11, 2, nullptr, s1, serial);
    builders::random_connected_counter(n, n / 3, 11, 2, &pool, s2, threaded);
    ASSERT_TRUE(serial == threaded) << "n=" << n;
    ASSERT_EQ(serial.fingerprint(), threaded.fingerprint()) << "n=" << n;
  }
}

// The builder commits its graph unvalidated (the engine's round-graph check
// validates every round graph once), so every build is validated here:
// several sizes and seeds, serial and on two lanes, one recycled scratch.
// The fingerprint it folds edge by edge equals the one from_port_edges
// derives from the graph's own edges.
TEST(CounterBuilder, EveryBuildIsValidAndFingerprintsItsEdges) {
  ThreadPool two_lanes(2);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &two_lanes}) {
    builders::CounterBuildScratch scratch;
    for (const std::size_t n : {1u, 2u, 3u, 17u, 191u, 193u, 1000u, 5000u}) {
      for (const std::uint64_t seed : {3ull, 8ull, 21ull}) {
        // n / 3 chords as the adversaries draw, and a dense draw that runs
        // the sweep fallback on the small sizes.
        for (const std::size_t extra : {n / 3, 4 * n}) {
          Graph g;
          builders::random_connected_counter(n, extra, seed, seed + n, pool,
                                             scratch, g);
          ASSERT_EQ(g.validate(), "")
              << "n=" << n << " seed=" << seed << " extra=" << extra;
          EXPECT_TRUE(is_connected(g));
          ASSERT_EQ(g.fingerprint(),
                    Graph::from_port_edges(n, g.edges()).fingerprint())
              << "n=" << n << " seed=" << seed << " extra=" << extra;
        }
      }
    }
  }
}

TEST(CounterBuilder, ScratchReuseDoesNotLeakAcrossBuilds) {
  // One scratch across different (n, draw) pairs must give the same graphs
  // as fresh scratch per build -- the recycling contract of the adversaries.
  builders::CounterBuildScratch recycled;
  for (const std::size_t n : {300u, 140u, 450u}) {
    for (const std::uint64_t draw : {0ull, 1ull}) {
      Graph reused, fresh_out;
      builders::random_connected_counter(n, n / 3, 5, draw, nullptr,
                                         recycled, reused);
      builders::CounterBuildScratch fresh;
      builders::random_connected_counter(n, n / 3, 5, draw, nullptr, fresh,
                                         fresh_out);
      ASSERT_TRUE(reused == fresh_out) << "n=" << n << " draw=" << draw;
    }
  }
}

}  // namespace
}  // namespace dyndisp
