// Fuzz-style property tests: random operation sequences on the Graph class
// must never break its invariants (reverse-port consistency, contiguous
// labels, simplicity), and the engine must handle boundary robot counts.
#include <gtest/gtest.h>

#include <numeric>

#include "core/dispersion.h"
#include "dynamic/static_adversary.h"
#include "graph/algorithms.h"
#include "graph/builders.h"
#include "graph/graph.h"
#include "robots/configuration.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

class GraphFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphFuzz, RandomOperationSequencesPreserveInvariants) {
  Rng rng(GetParam() * 2654435761ULL + 7);
  const std::size_t n = 4 + rng.below(20);
  Graph g(n);

  for (int op = 0; op < 300; ++op) {
    const auto choice = rng.below(100);
    if (choice < 45) {
      // add a random missing edge
      const NodeId u = static_cast<NodeId>(rng.below(n));
      const NodeId v = static_cast<NodeId>(rng.below(n));
      if (u != v && !g.has_edge(u, v)) {
        const auto [pu, pv] = g.add_edge(u, v);
        EXPECT_EQ(g.neighbor(u, pu), v);
        EXPECT_EQ(g.neighbor(v, pv), u);
      }
    } else if (choice < 75) {
      // remove a random present edge
      const auto edges = g.edges();
      if (!edges.empty()) {
        const auto& e = edges[rng.below(edges.size())];
        EXPECT_TRUE(g.remove_edge(e.u, e.v));
        EXPECT_FALSE(g.has_edge(e.u, e.v));
      }
    } else if (choice < 90) {
      // permute ports of a random node
      const NodeId v = static_cast<NodeId>(rng.below(n));
      std::vector<std::size_t> perm(g.degree(v));
      std::iota(perm.begin(), perm.end(), std::size_t{0});
      rng.shuffle(perm);
      g.permute_ports(v, perm);
    } else {
      g.shuffle_ports(rng);
    }
    ASSERT_TRUE(g.validate().empty())
        << "op " << op << ": " << g.validate();
  }
  // Cross-check edge_count against the edge list.
  EXPECT_EQ(g.edges().size(), g.edge_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(EngineBoundary, ZeroRobots) {
  StaticAdversary adv(builders::path(3));
  Engine engine(adv, Configuration(3, {}), core::dispersion_factory(),
                EngineOptions{});
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);  // vacuously, before round 0 is played
  EXPECT_EQ(r.rounds, 0u);
  EXPECT_EQ(r.k, 0u);
  EXPECT_EQ(r.packets_sent, 0u);
  EXPECT_EQ(r.packet_bits_sent, 0u);
}

TEST(EngineBoundary, SingleNodeGraphSingleRobot) {
  StaticAdversary adv(Graph(1));
  Engine engine(adv, Configuration(1, {0}), core::dispersion_factory(),
                EngineOptions{});
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(EngineBoundary, TwoRobotsTwoNodesEveryPlacement) {
  const std::vector<std::vector<NodeId>> placements{{0, 0}, {0, 1}, {1, 1}};
  for (const std::vector<NodeId>& placement : placements) {
    StaticAdversary adv(builders::path(2));
    EngineOptions opt;
    opt.max_rounds = 10;
    Engine engine(adv, Configuration(2, placement),
                  core::dispersion_factory(), opt);
    const RunResult r = engine.run();
    EXPECT_TRUE(r.dispersed);
    EXPECT_LE(r.rounds, 1u);
  }
}

}  // namespace
}  // namespace dyndisp
