// Tests for the baseline algorithms on their home turf (static graphs) and
// their documented failure modes on dynamic inputs.
#include <gtest/gtest.h>

#include <ostream>

#include "baselines/blind_walk.h"
#include "baselines/dfs_dispersion.h"
#include "baselines/greedy_local.h"
#include "baselines/random_walk.h"
#include "dynamic/random_adversary.h"
#include "dynamic/star_star_adversary.h"
#include "dynamic/static_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

EngineOptions local_options(Round horizon = 5000) {
  EngineOptions opt;
  opt.comm = CommModel::kLocal;
  opt.neighborhood_knowledge = false;
  opt.max_rounds = horizon;
  opt.record_progress = true;
  opt.allow_model_mismatch = true;
  return opt;
}

RunResult run_static(const Graph& g, Configuration conf,
                     const AlgorithmFactory& factory,
                     EngineOptions opt = local_options()) {
  StaticAdversary adv(g);
  Engine engine(adv, std::move(conf), factory, opt);
  return engine.run();
}

// ---- DFS dispersion on static graphs (its home setting) ----

struct DfsCase {
  const char* name;
  Graph (*make)();
  std::size_t k;
};

Graph g_path() { return builders::path(10); }
Graph g_cycle() { return builders::cycle(10); }
Graph g_star() { return builders::star(10); }
Graph g_grid() { return builders::grid(3, 4); }
Graph g_complete() { return builders::complete(8); }
Graph g_btree() { return builders::binary_tree(11); }
Graph g_random() {
  Rng rng(4);
  return builders::random_connected(12, 6, rng);
}
Graph g_lollipop() { return builders::lollipop(5, 5); }

// Print a case as its name: gtest would otherwise dump its raw bytes,
// function pointers included, into the discovered test names, which
// would then change from build to build.
void PrintTo(const DfsCase& c, std::ostream* os) { *os << c.name; }

class DfsStaticSweep : public ::testing::TestWithParam<DfsCase> {};

TEST_P(DfsStaticSweep, DispersesFromRootedConfig) {
  const DfsCase& c = GetParam();
  const Graph g = c.make();
  const RunResult r =
      run_static(g, placement::rooted(g.node_count(), c.k),
                 baselines::dfs_dispersion_factory());
  EXPECT_TRUE(r.dispersed) << "stalled at " << r.max_occupied << "/" << c.k;
  // DFS dispersion runs in O(m) rounds on static graphs.
  EXPECT_LE(r.rounds, 4 * g.edge_count() + 2);
}

INSTANTIATE_TEST_SUITE_P(
    Families, DfsStaticSweep,
    ::testing::Values(DfsCase{"path", g_path, 10}, DfsCase{"cycle", g_cycle, 7},
                      DfsCase{"star", g_star, 10}, DfsCase{"grid", g_grid, 9},
                      DfsCase{"complete", g_complete, 8},
                      DfsCase{"btree", g_btree, 11},
                      DfsCase{"random", g_random, 10},
                      DfsCase{"lollipop", g_lollipop, 8}),
    [](const ::testing::TestParamInfo<DfsCase>& param_info) {
      return param_info.param.name;
    });

TEST(DfsDispersion, RootedMidPathDisperses) {
  const Graph g = builders::path(9);
  const RunResult r = run_static(g, placement::rooted(9, 9, 4),
                                 baselines::dfs_dispersion_factory());
  EXPECT_TRUE(r.dispersed);
}

TEST(DfsDispersion, TwoGroupsOnStaticPath) {
  const Graph g = builders::path(12);
  const Configuration conf(12, {2, 2, 2, 9, 9, 9});
  const RunResult r =
      run_static(g, conf, baselines::dfs_dispersion_factory());
  EXPECT_TRUE(r.dispersed);
}

TEST(DfsDispersion, MemoryIncludesPortFields) {
  const Graph g = builders::star(6);
  const RunResult r = run_static(g, placement::rooted(6, 4),
                                 baselines::dfs_dispersion_factory());
  // id + 2 flags + two 16-bit port fields: strictly more than log k.
  EXPECT_GT(r.max_memory_bits, 32u);
}

// ---- Greedy local ----

TEST(GreedyLocal, SolvesStarInstantly) {
  EngineOptions opt = local_options();
  opt.neighborhood_knowledge = true;
  const RunResult r = run_static(builders::star(8), placement::rooted(8, 6, 0),
                                 baselines::greedy_local_factory(), opt);
  EXPECT_TRUE(r.dispersed);
  EXPECT_LE(r.rounds, 2u);
}

TEST(GreedyLocal, SurplusRobotsFanOutToDistinctEmptyPorts) {
  EngineOptions opt = local_options();
  opt.neighborhood_knowledge = true;
  const RunResult r = run_static(builders::star(9), placement::rooted(9, 8, 0),
                                 baselines::greedy_local_factory(), opt);
  EXPECT_TRUE(r.dispersed);
  EXPECT_EQ(r.rounds, 1u);  // 7 surplus robots, 8 leaves, one round
}

TEST(GreedyLocal, StallsOnPathWithInteriorMultiplicity) {
  // The Theorem 1 geometry, static: surplus robot at one end cannot see
  // the far-away empty node, and greedy never moves "sideways".
  EngineOptions opt = local_options(300);
  opt.neighborhood_knowledge = true;
  const Graph g = builders::path(8);
  const Configuration conf(8, {0, 0, 1, 2, 3, 4});  // fig-1-like, empty 5..7
  const RunResult r =
      run_static(g, conf, baselines::greedy_local_factory(), opt);
  EXPECT_FALSE(r.dispersed);  // its documented failure mode
}

TEST(GreedyLocal, RequiresNeighborhoodKnowledge) {
  StaticAdversary adv(builders::star(5));
  EngineOptions opt;
  opt.comm = CommModel::kLocal;
  opt.neighborhood_knowledge = false;
  EXPECT_THROW(Engine(adv, placement::rooted(5, 3),
                      baselines::greedy_local_factory(), opt),
               std::invalid_argument);
}

// ---- Random walk ----

TEST(RandomWalk, EventuallyDispersesOnStaticGraphs) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = builders::cycle(8);
    const RunResult r = run_static(g, placement::rooted(8, 5),
                                   baselines::random_walk_factory(seed));
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_TRUE(r.dispersed);
  }
}

TEST(RandomWalk, MemoryDominatedByPrngState) {
  const RunResult r = run_static(builders::cycle(6), placement::rooted(6, 3),
                                 baselines::random_walk_factory(9));
  EXPECT_GE(r.max_memory_bits, 256u);  // the PRNG state is persistent memory
}

TEST(RandomWalk, DeterministicGivenSeed) {
  const Graph g = builders::grid(3, 3);
  const RunResult a = run_static(g, placement::rooted(9, 6),
                                 baselines::random_walk_factory(5));
  const RunResult b = run_static(g, placement::rooted(9, 6),
                                 baselines::random_walk_factory(5));
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_TRUE(a.final_config == b.final_config);
}

// ---- Blind walk ----

TEST(BlindWalk, DispersesOnCompleteStaticGraph) {
  EngineOptions opt;
  opt.comm = CommModel::kGlobal;
  opt.neighborhood_knowledge = false;
  opt.max_rounds = 5000;
  StaticAdversary adv(builders::complete(9));
  Engine engine(adv, placement::rooted(9, 6), baselines::blind_walk_factory(),
                opt);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
}

TEST(BlindWalk, RequiresGlobalComm) {
  StaticAdversary adv(builders::path(4));
  EngineOptions opt;
  opt.comm = CommModel::kLocal;
  EXPECT_THROW(Engine(adv, placement::rooted(4, 2),
                      baselines::blind_walk_factory(), opt),
               std::invalid_argument);
}

// ---- Static-algorithm-on-dynamic-graph failure mode ----

TEST(Baselines, DfsStallsUnderAdversarialDynamics) {
  // Under the star-star adversary (the Theorem 3 construction) the DFS
  // baseline's settled-robot markers and rotors refer to edges that vanish
  // every round: measured behaviour is a hard stall far below dispersion,
  // for every seed, even with a 100x round budget.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::size_t n = 16, k = 12;
    StarStarAdversary adv(n, true, seed);
    EngineOptions opt = local_options(/*horizon=*/100 * k);
    Engine engine(adv, placement::rooted(n, k),
                  baselines::dfs_dispersion_factory(), opt);
    const RunResult r = engine.run();
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_FALSE(r.dispersed);
    EXPECT_LE(r.max_occupied, k / 2);  // measured: never above 5 of 12
  }
}

TEST(Baselines, DfsToleratesBenignRandomDynamics) {
  // Counterpoint recorded in EXPERIMENTS.md: full random rewiring is not
  // adversarial -- it effectively randomizes the walk, and the DFS group
  // happens to scatter quickly. Only adversarial dynamics defeat it.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RandomAdversary adv(12, 5, seed);
    EngineOptions opt = local_options(/*horizon=*/2000);
    Engine engine(adv, placement::rooted(12, 9),
                  baselines::dfs_dispersion_factory(), opt);
    const RunResult r = engine.run();
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_TRUE(r.dispersed);
  }
}

}  // namespace
}  // namespace dyndisp
