// Tests for the dynamic-graph layer: every adversary must emit valid
// 1-interval connected round graphs, and the paper-specific adversaries must
// realize their defining structural properties.
#include <gtest/gtest.h>

#include <memory>

#include "dynamic/churn_adversary.h"
#include "dynamic/clique_trap_adversary.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/path_trap_adversary.h"
#include "dynamic/random_adversary.h"
#include "dynamic/scripted_adversary.h"
#include "dynamic/star_star_adversary.h"
#include "dynamic/static_adversary.h"
#include "dynamic/t_interval_adversary.h"
#include "dynamic/validator.h"
#include "graph/algorithms.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

Configuration some_config(std::size_t n, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  return placement::uniform_random(n, k, rng);
}

// ---- validator ----

TEST(Validator, AcceptsConnectedGraph) {
  EXPECT_TRUE(validate_round_graph(builders::cycle(5), 5).empty());
}

TEST(Validator, RejectsWrongNodeCount) {
  EXPECT_FALSE(validate_round_graph(builders::cycle(5), 6).empty());
}

TEST(Validator, RejectsDisconnected) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_NE(validate_round_graph(g, 4).find("not connected"),
            std::string::npos);
}

// ---- apply_plan ----

TEST(ApplyPlan, MovesAliveRobotsOnly) {
  const Graph g = builders::path(4);
  Configuration conf(4, {0, 0, 2});
  conf.kill(3);
  MovePlan plan{1, kInvalidPort, 1};  // robot1 via port1, robot3 (dead) via 1
  // A warm target whose old contents must not survive the refill.
  Configuration next(4, {3, 3, 3});
  apply_plan(g, conf, plan, next);
  EXPECT_EQ(next.position(1), 1u);
  EXPECT_EQ(next.position(2), 0u);
  EXPECT_EQ(next.position(3), 2u);  // unchanged: dead robots never move
  EXPECT_FALSE(next.alive(3));
}

// ---- generic adversary validity sweep ----

using AdversaryMaker = std::unique_ptr<Adversary> (*)(std::size_t n);

std::unique_ptr<Adversary> make_static(std::size_t n) {
  return std::make_unique<StaticAdversary>(builders::cycle(n));
}
std::unique_ptr<Adversary> make_static_shuffle(std::size_t n) {
  return std::make_unique<StaticAdversary>(builders::grid(2, n / 2), true, 3);
}
std::unique_ptr<Adversary> make_random(std::size_t n) {
  return std::make_unique<RandomAdversary>(n, n / 3, 5);
}
std::unique_ptr<Adversary> make_churn(std::size_t n) {
  Rng rng(11);
  return std::make_unique<ChurnAdversary>(
      builders::random_connected(n, n / 2, rng), 2, 7);
}
std::unique_ptr<Adversary> make_star_star(std::size_t n) {
  return std::make_unique<StarStarAdversary>(n);
}
std::unique_ptr<Adversary> make_star_star_shuffled(std::size_t n) {
  return std::make_unique<StarStarAdversary>(n, true, 23);
}
std::unique_ptr<Adversary> make_t_interval(std::size_t n) {
  return std::make_unique<TIntervalAdversary>(
      std::make_unique<RandomAdversary>(n, n / 4, 9), 3);
}
std::unique_ptr<Adversary> make_path_trap(std::size_t n) {
  return std::make_unique<PathTrapAdversary>(n);
}
std::unique_ptr<Adversary> make_clique_trap(std::size_t n) {
  return std::make_unique<CliqueTrapAdversary>(n);
}

struct AdversaryCase {
  const char* name;
  AdversaryMaker make;
};

class AdversaryValidity : public ::testing::TestWithParam<AdversaryCase> {};

TEST_P(AdversaryValidity, EmitsValidGraphsForManyRoundsAndConfigs) {
  const std::size_t n = 12;
  auto adversary = GetParam().make(n);
  EXPECT_EQ(adversary->node_count(), n);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Configuration conf = some_config(n, 8, seed);
    for (Round r = 0; r < 25; ++r) {
      const Graph g = adversary->next_graph(r, conf);
      ASSERT_TRUE(validate_round_graph(g, n).empty())
          << GetParam().name << " round " << r << ": "
          << validate_round_graph(g, n);
      // Walk some robots around so subsequent rounds see fresh configs.
      Rng rng(seed * 100 + r);
      for (RobotId id = 1; id <= conf.robot_count(); ++id) {
        const NodeId pos = conf.position(id);
        if (g.degree(pos) > 0 && rng.chance(0.5)) {
          conf.set_position(
              id, g.neighbor(pos, static_cast<Port>(
                                      rng.below(g.degree(pos)) + 1)));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAdversaries, AdversaryValidity,
    ::testing::Values(AdversaryCase{"static", make_static},
                      AdversaryCase{"static_shuffle", make_static_shuffle},
                      AdversaryCase{"random", make_random},
                      AdversaryCase{"churn", make_churn},
                      AdversaryCase{"star_star", make_star_star},
                      AdversaryCase{"star_star_shuffled",
                                    make_star_star_shuffled},
                      AdversaryCase{"t_interval", make_t_interval},
                      AdversaryCase{"path_trap", make_path_trap},
                      AdversaryCase{"clique_trap", make_clique_trap}),
    [](const ::testing::TestParamInfo<AdversaryCase>& param_info) {
      return param_info.param.name;
    });

// ---- specific adversaries ----

TEST(StaticAdversary, ReplaysSameGraph) {
  StaticAdversary adv(builders::cycle(6));
  const Configuration conf = some_config(6, 3, 1);
  const Graph g0 = adv.next_graph(0, conf);
  const Graph g1 = adv.next_graph(1, conf);
  EXPECT_EQ(g0, g1);
}

TEST(StaticAdversary, ShuffleChangesPortsNotTopology) {
  StaticAdversary adv(builders::complete(5), true, 17);
  const Configuration conf = some_config(5, 3, 1);
  const Graph g0 = adv.next_graph(0, conf);
  const Graph g1 = adv.next_graph(1, conf);
  EXPECT_EQ(g1.edge_count(), 10u);
  EXPECT_FALSE(g0 == g1);  // port labels differ (overwhelmingly likely)
}

TEST(ScriptedAdversary, PlaysScriptThenRepeatsLast) {
  std::vector<Graph> script{builders::path(4), builders::cycle(4)};
  ScriptedAdversary adv(std::move(script));
  const Configuration conf = some_config(4, 2, 1);
  EXPECT_EQ(adv.next_graph(0, conf).edge_count(), 3u);
  EXPECT_EQ(adv.next_graph(1, conf).edge_count(), 4u);
  EXPECT_EQ(adv.next_graph(5, conf).edge_count(), 4u);
}

TEST(ScriptedAdversary, RepeatsExactlyTheLastGraphForever) {
  // Pins the documented horizon contract: round r < script_length() plays
  // script[r]; every later round repeats the LAST graph bit-identically.
  // The shrinker's script truncation depends on this being a guarantee.
  const Graph a = builders::path(5);
  const Graph b = builders::cycle(5);
  ScriptedAdversary adv(std::vector<Graph>{a, b});
  const Configuration conf = some_config(5, 3, 1);
  EXPECT_EQ(adv.script_length(), 2u);
  EXPECT_EQ(adv.next_graph(0, conf), a);
  EXPECT_EQ(adv.next_graph(1, conf), b);
  EXPECT_EQ(adv.next_graph(2, conf), b);
  EXPECT_EQ(adv.next_graph(1000, conf), b);
  // A one-graph prefix is itself a complete (static) execution.
  ScriptedAdversary prefix(std::vector<Graph>{a});
  EXPECT_EQ(prefix.next_graph(0, conf), a);
  EXPECT_EQ(prefix.next_graph(7, conf), a);
}

TEST(ScriptedAdversary, RejectsEmptyAndMixedSizeScripts) {
  EXPECT_THROW(ScriptedAdversary(std::vector<Graph>{}), std::invalid_argument);
  EXPECT_THROW(
      ScriptedAdversary(std::vector<Graph>{builders::path(4),
                                           builders::path(5)}),
      std::invalid_argument);
}

TEST(ScriptedAdversary, SerializeParseRoundTripsShuffledPorts) {
  // Repro artifacts embed scripts as text; a shuffled port labeling must
  // survive the round-trip exactly (ports are the robots' entire interface
  // to the graph, so "same topology" is not enough).
  StaticAdversary shuffler(builders::complete(6), true, 17);
  const Configuration conf = some_config(6, 3, 1);
  const std::vector<Graph> script{shuffler.next_graph(0, conf),
                                  shuffler.next_graph(1, conf),
                                  builders::path(6)};
  const std::string text = ScriptedAdversary::serialize_script(script);
  const std::vector<Graph> parsed = ScriptedAdversary::parse_script(text);
  ASSERT_EQ(parsed.size(), script.size());
  for (std::size_t i = 0; i < script.size(); ++i)
    EXPECT_EQ(parsed[i], script[i]) << "graph " << i;
}

TEST(ScriptedAdversary, ParseRejectsMalformedText) {
  EXPECT_THROW(ScriptedAdversary::parse_script("garbage"),
               std::invalid_argument);
  EXPECT_THROW(ScriptedAdversary::parse_script("g 4 2\n0 1 1 1\n"),
               std::invalid_argument);  // truncated edge list
}

// Hostile counts get a typed error before any large allocation: edge
// storage is bounded by the text left, the node count by NodeId, and a port
// by its endpoint's edge count.
TEST(ScriptedAdversary, ParseRejectsEdgeCountTheTextCannotHold) {
  EXPECT_THROW(ScriptedAdversary::parse_script("g 3 99999999999999"),
               std::invalid_argument);
}

TEST(ScriptedAdversary, ParseRejectsNodeCountBeyondNodeId) {
  EXPECT_THROW(ScriptedAdversary::parse_script("g 99999999999999 0"),
               std::invalid_argument);
}

TEST(ScriptedAdversary, ParseRejectsPortAboveEdgeCount) {
  EXPECT_THROW(ScriptedAdversary::parse_script("g 3 1\n0 1 10000000 1\n"),
               std::invalid_argument);
  EXPECT_THROW(ScriptedAdversary::parse_script("g 2 1\n0 1 4000000000 1\n"),
               std::invalid_argument);
}

// A shrunk round-graph violation replays a disconnected graph, so the
// parser accepts one; the engine's round-graph check is what rejects it.
TEST(ScriptedAdversary, ParseKeepsDisconnectedGraphs) {
  const std::vector<Graph> parsed =
      ScriptedAdversary::parse_script("g 3 1\n0 1 1 1\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].edge_count(), 1u);
  EXPECT_NE(validate_round_graph(parsed[0], 3).find("not connected"),
            std::string::npos);
}

TEST(ChurnAdversary, PreservesEdgeCountApproximately) {
  Rng rng(3);
  const Graph initial = builders::random_connected(15, 10, rng);
  const std::size_t m0 = initial.edge_count();
  ChurnAdversary adv(initial, 2, 5);
  const Configuration conf = some_config(15, 6, 2);
  for (Round r = 0; r < 20; ++r) {
    const Graph g = adv.next_graph(r, conf);
    EXPECT_LE(g.edge_count(), m0);
    EXPECT_GE(g.edge_count() + 2 * 20, m0);  // bounded drift
  }
}

TEST(ChurnAdversary, ActuallyChangesEdges) {
  Rng rng(3);
  ChurnAdversary adv(builders::random_connected(12, 8, rng), 3, 5);
  const Configuration conf = some_config(12, 4, 2);
  const Graph g0 = adv.next_graph(0, conf);
  const Graph g1 = adv.next_graph(1, conf);
  EXPECT_FALSE(g0 == g1);
}

TEST(TIntervalAdversary, HoldsGraphForTRounds) {
  TIntervalAdversary adv(std::make_unique<RandomAdversary>(10, 4, 9), 4);
  const Configuration conf = some_config(10, 5, 1);
  const Graph g0 = adv.next_graph(0, conf);
  EXPECT_EQ(g0, adv.next_graph(1, conf));
  EXPECT_EQ(g0, adv.next_graph(2, conf));
  EXPECT_EQ(g0, adv.next_graph(3, conf));
  EXPECT_FALSE(g0 == adv.next_graph(4, conf));
}

TEST(StarStarAdversary, DiameterAtMostThree) {
  StarStarAdversary adv(20);
  const Configuration conf = placement::rooted(20, 10);
  const Graph g = adv.next_graph(0, conf);
  EXPECT_LE(diameter(g), 3u);
}

TEST(StarStarAdversary, OnlyOneEmptyNodeAdjacentToOccupied) {
  // The defining property behind Theorem 3: at most one new node reachable.
  StarStarAdversary adv(15);
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Configuration conf = placement::uniform_random(15, 9, rng);
    const Graph g = adv.next_graph(0, conf);
    const auto occ = conf.occupancy();
    std::size_t reachable_empty = 0;
    for (NodeId v = 0; v < 15; ++v) {
      if (occ[v] != 0) continue;
      bool adjacent_to_occupied = false;
      for (const HalfEdge& he : g.incident(v))
        adjacent_to_occupied |= occ[he.to] > 0;
      if (adjacent_to_occupied) ++reachable_empty;
    }
    EXPECT_LE(reachable_empty, 1u);
  }
}

TEST(StarStarAdversary, HandlesAllNodesOccupied) {
  StarStarAdversary adv(6);
  Configuration conf(6, {0, 1, 2, 3, 4, 5});
  EXPECT_TRUE(validate_round_graph(adv.next_graph(0, conf), 6).empty());
}

TEST(PathTrapAdversary, WithoutProbeEmitsCanonicalTrap) {
  // No probe installed: the adversary emits the Fig. 1 shape directly.
  const std::size_t n = 10, k = 6;
  PathTrapAdversary adv(n);
  const Configuration conf = placement::figure1(n, k);
  const Graph g = adv.next_graph(0, conf);
  ASSERT_TRUE(validate_round_graph(g, n).empty());
  const auto occ = conf.occupancy();
  // Exactly one empty node is adjacent to an occupied node (the blob
  // center next to the path end).
  std::size_t frontier = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (occ[v] != 0) continue;
    for (const HalfEdge& he : g.incident(v)) {
      if (occ[he.to] > 0) {
        ++frontier;
        break;
      }
    }
  }
  EXPECT_EQ(frontier, 1u);
  // The doubled node has degree 1 (it sits at the far end of the path).
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(CliqueTrapAdversary, WithoutProbeBuildsCliquePlusPath) {
  const std::size_t n = 12, k = 8;
  CliqueTrapAdversary adv(n);
  Rng rng(2);
  const Configuration conf = placement::grouped(n, k, k - 1, rng);
  const Graph g = adv.next_graph(0, conf);
  ASSERT_TRUE(validate_round_graph(g, n).empty());
  // Occupied nodes all have degree alpha-1 (uniform clique views).
  const auto occ = conf.occupancy();
  const std::size_t alpha = conf.occupied_count();
  for (NodeId v = 0; v < n; ++v) {
    if (occ[v] > 0) {
      EXPECT_EQ(g.degree(v), alpha - 1) << "node " << v;
    }
  }
}

}  // namespace
}  // namespace dyndisp
