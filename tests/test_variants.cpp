// Tests for the design-variant knobs: the BFS spanning-tree alternative the
// paper mentions in Algorithm 2, the per-round path cap, and the
// semi-synchronous activation model (the paper's future-work direction).
// All variants must preserve the correctness lemmas; only constants change.
#include <gtest/gtest.h>

#include <set>

#include "analysis/verify.h"
#include "core/component.h"
#include "core/disjoint_paths.h"
#include "core/dispersion.h"
#include "core/planner.h"
#include "core/spanning_tree.h"
#include "dynamic/random_adversary.h"
#include "dynamic/star_star_adversary.h"
#include "dynamic/static_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "sim/sensing.h"
#include "util/rng.h"
#include "util/stats.h"

namespace dyndisp {
namespace {

using core::build_all_components;
using core::build_spanning_tree;
using core::build_spanning_tree_bfs;
using core::PlannerConfig;

// ---- BFS spanning tree ----

TEST(BfsTree, SpansComponentWithSameRoot) {
  Rng rng(31);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 4 + rng.below(20);
    const std::size_t k = 2 + rng.below(n - 1);
    const Graph g = builders::random_connected(n, rng.below(2 * n), rng);
    const Configuration conf = placement::uniform_random(n, k, rng);
    const auto packets = make_all_packets(g, conf, true);
    for (const auto& cg : build_all_components(packets)) {
      if (!cg.has_multiplicity()) continue;
      const auto dfs = build_spanning_tree(cg);
      const auto bfs = build_spanning_tree_bfs(cg);
      EXPECT_EQ(bfs.root(), dfs.root());
      EXPECT_EQ(bfs.size(), cg.size());
      // Every BFS tree edge is a component edge.
      for (const auto& tn : bfs.nodes()) {
        if (tn.parent == kNoRobot) continue;
        const auto* cn = cg.find(tn.name);
        ASSERT_NE(cn, nullptr);
        bool found = false;
        for (const auto& [port, nb] : cg.edges(*cn))
          found |= nb == tn.parent && port == tn.port_to_parent;
        EXPECT_TRUE(found);
      }
    }
  }
}

TEST(BfsTree, DepthsAreMinimal) {
  // BFS depth == hop distance in the component graph; DFS depth >= it.
  Rng rng(37);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 5 + rng.below(15);
    const std::size_t k = 3 + rng.below(n - 2);
    const Graph g = builders::random_connected(n, n, rng);
    const Configuration conf = placement::uniform_random(n, k, rng);
    const auto packets = make_all_packets(g, conf, true);
    for (const auto& cg : build_all_components(packets)) {
      if (!cg.has_multiplicity()) continue;
      const auto dfs = build_spanning_tree(cg);
      const auto bfs = build_spanning_tree_bfs(cg);
      for (const auto& tn : bfs.nodes()) {
        const auto* dfs_node = dfs.find(tn.name);
        ASSERT_NE(dfs_node, nullptr);
        EXPECT_LE(tn.depth, dfs_node->depth) << "BFS deeper than DFS";
      }
    }
  }
}

TEST(BfsTree, DisjointPathLemmasHold) {
  Rng rng(41);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 5 + rng.below(15);
    const std::size_t k = 3 + rng.below(n - 2);
    const Graph g = builders::random_connected(n, rng.below(n), rng);
    const Configuration conf = placement::uniform_random(n, k, rng);
    const auto packets = make_all_packets(g, conf, true);
    for (const auto& cg : build_all_components(packets)) {
      if (!cg.has_multiplicity()) continue;
      const auto bfs = build_spanning_tree_bfs(cg);
      const auto paths = core::disjoint_paths(cg, bfs);
      EXPECT_GE(paths.size(), 1u);  // Lemma 3 under BFS trees too
      std::set<RobotId> used;
      for (const auto& path : paths) {
        EXPECT_EQ(path.front(), bfs.root());
        for (std::size_t i = 1; i < path.size(); ++i)
          EXPECT_TRUE(used.insert(path[i]).second);
      }
    }
  }
}

// ---- End-to-end with variant configs ----

EngineOptions progress_options(Round max_rounds) {
  EngineOptions opt;
  opt.max_rounds = max_rounds;
  opt.record_progress = true;
  return opt;
}

class VariantSweep : public ::testing::TestWithParam<PlannerConfig> {};

TEST_P(VariantSweep, Theorem4BoundsHoldForEveryVariant) {
  const PlannerConfig config = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::size_t n = 18, k = 14;
    RandomAdversary adv(n, 6, seed);
    Rng rng(seed);
    Engine engine(adv, placement::uniform_random(n, k, rng),
                  core::dispersion_factory_with_config(config),
                  progress_options(10 * k));
    const RunResult r = engine.run();
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_TRUE(r.dispersed);
    EXPECT_TRUE(analysis::check_round_bound(r).empty())
        << analysis::check_round_bound(r);
    EXPECT_TRUE(analysis::check_progress_every_round(r).empty())
        << analysis::check_progress_every_round(r);
    EXPECT_TRUE(analysis::check_memory_bound(r).empty())
        << analysis::check_memory_bound(r);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, VariantSweep,
    ::testing::Values(
        PlannerConfig{PlannerConfig::Tree::kDfs, 0},   // the paper
        PlannerConfig{PlannerConfig::Tree::kBfs, 0},   // BFS trees
        PlannerConfig{PlannerConfig::Tree::kDfs, 1},   // one path per round
        PlannerConfig{PlannerConfig::Tree::kBfs, 1},
        PlannerConfig{PlannerConfig::Tree::kBfs, 2}),
    [](const ::testing::TestParamInfo<PlannerConfig>& param_info) {
      return std::string(param_info.param.tree == PlannerConfig::Tree::kBfs
                             ? "bfs"
                             : "dfs") +
             "_cap" + std::to_string(param_info.param.max_paths);
    });

TEST(Variants, BfsMeetsLowerBoundExactlyToo) {
  const std::size_t n = 15, k = 11;
  StarStarAdversary adv(n);
  Engine engine(adv, placement::rooted(n, k),
                core::dispersion_factory_with_config(
                    {PlannerConfig::Tree::kBfs, 0}),
                progress_options(10 * k));
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
  EXPECT_EQ(r.rounds, k - 1);
}

TEST(Variants, PathCapIsSlowerOnBushyComponents) {
  // Star topology with many robots on the hub: multi-path serves several
  // robots per round, the cap-1 ablation serves one.
  const std::size_t n = 12, k = 9;
  StaticAdversary adv1(builders::star(n)), adv2(builders::star(n));
  Engine multi(adv1, placement::rooted(n, k, 0),
               core::dispersion_factory_with_config({}),
               progress_options(10 * k));
  Engine capped(adv2, placement::rooted(n, k, 0),
                core::dispersion_factory_with_config(
                    {PlannerConfig::Tree::kDfs, 1}),
                progress_options(10 * k));
  const RunResult rm = multi.run();
  const RunResult rc = capped.run();
  EXPECT_TRUE(rm.dispersed);
  EXPECT_TRUE(rc.dispersed);
  EXPECT_EQ(rc.rounds, k - 1);     // one robot placed per round
  EXPECT_LE(rm.rounds, rc.rounds); // multi-path can only be faster
}

// ---- Semi-synchronous activation ----

TEST(SemiSync, FullProbabilityMatchesSynchronous) {
  const std::size_t n = 14, k = 10;
  RandomAdversary adv1(n, 5, 3), adv2(n, 5, 3);
  EngineOptions sync = progress_options(10 * k);
  EngineOptions semi = progress_options(10 * k);
  semi.activation = Activation::kRandomSubset;
  semi.activation_probability = 1.0;
  Engine a(adv1, placement::rooted(n, k), core::dispersion_factory(), sync);
  Engine b(adv2, placement::rooted(n, k), core::dispersion_factory(), semi);
  const RunResult ra = a.run(), rb = b.run();
  EXPECT_EQ(ra.rounds, rb.rounds);
  EXPECT_TRUE(ra.final_config == rb.final_config);
}

class SemiSyncSweep : public ::testing::TestWithParam<double> {};

TEST_P(SemiSyncSweep, StillDispersesWithPartialActivation) {
  const double p = GetParam();
  const std::size_t n = 15, k = 11;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RandomAdversary adv(n, 5, seed);
    EngineOptions opt = progress_options(
        static_cast<Round>(40.0 * static_cast<double>(k) / p));
    opt.activation = Activation::kRandomSubset;
    opt.activation_probability = p;
    opt.activation_seed = seed * 7;
    Engine engine(adv, placement::rooted(n, k), core::dispersion_factory(),
                  opt);
    const RunResult r = engine.run();
    SCOPED_TRACE("p=" + std::to_string(p) + " seed=" + std::to_string(seed));
    EXPECT_TRUE(r.dispersed);
    // Note: partial slides CAN transiently vacate singleton path nodes, so
    // the per-round progress lemma does not carry over -- only eventual
    // dispersion (asserted above) and the memory bound do:
    EXPECT_TRUE(analysis::check_memory_bound(r).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Probabilities, SemiSyncSweep,
                         ::testing::Values(0.9, 0.7, 0.5, 0.3));

TEST(SemiSync, RoundRobinSequentialSchedulerStillDisperses) {
  // The harshest classical weakening: exactly one robot acts per round.
  // Algorithm 4 still disperses: each designated mover eventually gets its
  // turn and plans are rebuilt from the live configuration every round.
  // (From a rooted start the ascending activation order even happens to
  // coincide with the planner's ascending mover choice, so rooted runs land
  // near k rounds; grouped starts pay the real sequential penalty.)
  const std::size_t n = 12, k = 8;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RandomAdversary adv(n, 5, seed);
    Rng rng(seed);
    EngineOptions opt = progress_options(200 * k);
    opt.activation = Activation::kRoundRobin;
    Engine engine(adv, placement::grouped(n, k, 3, rng),
                  core::dispersion_factory(), opt);
    const RunResult r = engine.run();
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_TRUE(r.dispersed);
    EXPECT_GE(r.rounds, k - 1);
    EXPECT_TRUE(analysis::check_memory_bound(r).empty());
  }
}

TEST(SemiSync, RoundRobinSkipsDeadRobots) {
  const std::size_t n = 10, k = 6;
  RandomAdversary adv(n, 4, 2);
  EngineOptions opt = progress_options(500);
  opt.activation = Activation::kRoundRobin;
  Engine engine(adv, placement::rooted(n, k), core::dispersion_factory(),
                opt, FaultSchedule({{3, 2, CrashPhase::kBeforeCommunicate},
                                    {5, 4, CrashPhase::kBeforeCommunicate}}));
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
  EXPECT_EQ(r.crashed, 2u);
}

TEST(SemiSync, LowActivationIsSlowerThanSynchronous) {
  const std::size_t n = 15, k = 11;
  Summary sync_rounds, semi_rounds;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    {
      RandomAdversary adv(n, 5, seed);
      Engine e(adv, placement::rooted(n, k), core::dispersion_factory(),
               progress_options(100 * k));
      sync_rounds.add(static_cast<double>(e.run().rounds));
    }
    {
      RandomAdversary adv(n, 5, seed);
      EngineOptions opt = progress_options(100 * k);
      opt.activation = Activation::kRandomSubset;
      opt.activation_probability = 0.3;
      opt.activation_seed = seed;
      Engine e(adv, placement::rooted(n, k), core::dispersion_factory(), opt);
      semi_rounds.add(static_cast<double>(e.run().rounds));
    }
  }
  EXPECT_LT(sync_rounds.mean(), semi_rounds.mean());
}

}  // namespace
}  // namespace dyndisp
