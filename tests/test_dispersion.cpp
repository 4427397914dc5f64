// End-to-end tests of Algorithm 4 under the engine: Theorem 4's round and
// memory bounds across graph families, adversaries, and placements.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/verify.h"
#include "core/dispersion.h"
#include "core/structure_cache.h"
#include "dynamic/churn_adversary.h"
#include "dynamic/clique_trap_adversary.h"
#include "dynamic/path_trap_adversary.h"
#include "dynamic/random_adversary.h"
#include "dynamic/scripted_adversary.h"
#include "dynamic/star_star_adversary.h"
#include "dynamic/static_adversary.h"
#include "dynamic/t_interval_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "util/bits.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

EngineOptions standard_options() {
  EngineOptions opt;
  opt.comm = CommModel::kGlobal;
  opt.neighborhood_knowledge = true;
  opt.max_rounds = 10000;
  opt.record_progress = true;
  return opt;
}

RunResult run(Adversary& adv, Configuration conf,
              const AlgorithmFactory& factory = core::dispersion_factory(),
              EngineOptions opt = standard_options()) {
  Engine engine(adv, std::move(conf), factory, opt);
  return engine.run();
}

void expect_theorem4(const RunResult& r) {
  EXPECT_TRUE(r.dispersed);
  EXPECT_TRUE(analysis::check_round_bound(r).empty())
      << analysis::check_round_bound(r);
  EXPECT_TRUE(analysis::check_memory_bound(r).empty())
      << analysis::check_memory_bound(r);
  EXPECT_TRUE(analysis::check_progress_every_round(r).empty())
      << analysis::check_progress_every_round(r);
  EXPECT_TRUE(analysis::check_occupied_monotone(r).empty())
      << analysis::check_occupied_monotone(r);
}

TEST(Dispersion, AlreadyDispersedStopsImmediately) {
  StaticAdversary adv(builders::cycle(5));
  const RunResult r = run(adv, Configuration(5, {0, 2, 4}));
  EXPECT_TRUE(r.dispersed);
  EXPECT_EQ(r.rounds, 0u);
  EXPECT_EQ(r.total_moves, 0u);
}

TEST(Dispersion, TwoRobotsOneEdge) {
  StaticAdversary adv(builders::path(2));
  const RunResult r = run(adv, placement::rooted(2, 2));
  EXPECT_TRUE(r.dispersed);
  EXPECT_EQ(r.rounds, 1u);
}

TEST(Dispersion, RootedOnStaticPathTakesExactlyKMinusOneRounds) {
  // Rooted at one end of a path: exactly one robot exits per round.
  StaticAdversary adv(builders::path(8));
  const RunResult r = run(adv, placement::rooted(8, 8, 0));
  EXPECT_TRUE(r.dispersed);
  EXPECT_EQ(r.rounds, 7u);  // k - initial_occupied
}

TEST(Dispersion, KEqualsNFillsEveryNode) {
  StaticAdversary adv(builders::cycle(9));
  const RunResult r = run(adv, placement::rooted(9, 9));
  EXPECT_TRUE(r.dispersed);
  EXPECT_EQ(r.final_config.occupied_count(), 9u);
}

TEST(Dispersion, MemoryIsExactlyCeilLog2K) {
  StaticAdversary adv(builders::complete(20));
  const RunResult r = run(adv, placement::rooted(20, 17));
  EXPECT_EQ(r.max_memory_bits, bit_width_for(18));  // IDs in [1,17]
}

TEST(Dispersion, SingleRobotIsTriviallyDispersed) {
  StaticAdversary adv(builders::path(3));
  const RunResult r = run(adv, Configuration(3, {1}));
  EXPECT_TRUE(r.dispersed);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(Dispersion, UnderStarStarAdversaryRooted) {
  // The lower-bound adversary: Algorithm 4 still meets its O(k) bound
  // exactly (one new node per round), demonstrating Theta(k) tightness.
  const std::size_t n = 16, k = 12;
  StarStarAdversary adv(n);
  const RunResult r = run(adv, placement::rooted(n, k));
  expect_theorem4(r);
  EXPECT_EQ(r.rounds, k - 1);
}

TEST(Dispersion, UnderStarStarWithShuffledPorts) {
  const std::size_t n = 14, k = 10;
  StarStarAdversary adv(n, true, 99);
  const RunResult r = run(adv, placement::rooted(n, k));
  expect_theorem4(r);
  EXPECT_EQ(r.rounds, k - 1);
}

TEST(Dispersion, MemoizedModeIdenticalToFaithful) {
  // The faithful factory has every robot derive the round plan itself from
  // the packets; the memoized engine shares one plan through the PlanCache
  // and StructureCache. Beyond the random adversary, the trap adversaries
  // drive the probe path (candidate broadcasts on pooled arenas, dry runs
  // of every robot) and the T=8 interval adversary replays graphs, which
  // exercises delta broadcasts and StructureCache delta rounds.
  using MakeAdversary = std::unique_ptr<Adversary> (*)(std::uint64_t seed);
  const std::pair<const char*, MakeAdversary> kAdversaries[] = {
      {"random",
       [](std::uint64_t seed) -> std::unique_ptr<Adversary> {
         return std::make_unique<RandomAdversary>(12, 5, seed);
       }},
      {"path-trap",
       [](std::uint64_t seed) -> std::unique_ptr<Adversary> {
         return std::make_unique<PathTrapAdversary>(12, seed);
       }},
      {"clique-trap",
       [](std::uint64_t) -> std::unique_ptr<Adversary> {
         return std::make_unique<CliqueTrapAdversary>(12);
       }},
      {"t-interval(T=8)",
       [](std::uint64_t seed) -> std::unique_ptr<Adversary> {
         return std::make_unique<TIntervalAdversary>(
             std::make_unique<RandomAdversary>(12, 3, seed), 8);
       }},
  };
  for (const auto& [name, make] : kAdversaries) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      const std::unique_ptr<Adversary> adv1 = make(seed), adv2 = make(seed);
      Rng r1(seed), r2(seed);
      const Configuration conf1 = placement::uniform_random(12, 9, r1);
      const Configuration conf2 = placement::uniform_random(12, 9, r2);
      const RunResult a = run(*adv1, conf1, core::dispersion_factory());
      const RunResult b =
          run(*adv2, conf2, core::dispersion_factory_memoized());
      EXPECT_TRUE(a.dispersed);
      EXPECT_EQ(a.rounds, b.rounds);
      EXPECT_EQ(a.total_moves, b.total_moves);
      EXPECT_TRUE(a.final_config == b.final_config);
    }
  }

  // Replay-heavy inputs: a static torus and a three-graph script that
  // replays its last graph forever. The memoized run must visibly have
  // reused work, so the identity is not vacuous on them.
  const std::size_t n = 30, k = 20;
  Rng rng(9);
  std::vector<Graph> script;
  for (int i = 0; i < 3; ++i)
    script.push_back(builders::random_connected(n, n / 2, rng));
  StaticAdversary torus_a(builders::torus(5, 6));
  StaticAdversary torus_b(builders::torus(5, 6));
  ScriptedAdversary script_a(script), script_b(script);
  const std::tuple<const char*, Adversary*, Adversary*> kReplays[] = {
      {"static torus", &torus_a, &torus_b},
      {"scripted, repeat-last horizon", &script_a, &script_b}};
  for (const auto& [name, faithful_adv, memo_adv] : kReplays) {
    SCOPED_TRACE(name);
    const RunResult a = run(*faithful_adv, placement::rooted(n, k),
                            core::dispersion_factory());
    // dispersion_factory_memoized()'s construction, with the caches held
    // here so their counters are this run's alone.
    auto cache = std::make_shared<core::PlanCache>();
    cache->set_structure_cache(std::make_shared<core::StructureCache>());
    const RunResult b = run(*memo_adv, placement::rooted(n, k),
                            [cache](RobotId id, std::size_t robots) {
                              return std::make_unique<core::DispersionRobot>(
                                  id, robots, cache);
                            });
    EXPECT_TRUE(a.dispersed);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.total_moves, b.total_moves);
    EXPECT_EQ(a.packet_bits_sent, b.packet_bits_sent);
    EXPECT_TRUE(a.final_config == b.final_config);
    EXPECT_GT(b.stats.graph_reuses, 0u);
    if (memo_adv != &torus_b) continue;
    EXPECT_GT(b.stats.broadcasts_reused + b.stats.broadcast_deltas, 0u);
    EXPECT_GT(b.stats.validations_skipped, 0u);
    // The planner consulted the cross-round cache (exact hit, delta or full
    // build depending on how much occupancy moved; test_structure_cache.cpp
    // pins each mode individually).
    const core::StructureCacheStats sc = cache->structure_cache()->stats();
    EXPECT_GT(sc.exact_hits + sc.delta_rounds + sc.full_builds, 0u);
  }
}

struct SweepCase {
  const char* name;
  std::size_t n, k;
  std::unique_ptr<Adversary> (*adversary)(std::size_t n, std::uint64_t seed);
  Configuration (*placement)(std::size_t n, std::size_t k, std::uint64_t seed);
};

std::unique_ptr<Adversary> adv_static_path(std::size_t n, std::uint64_t) {
  return std::make_unique<StaticAdversary>(builders::path(n));
}
std::unique_ptr<Adversary> adv_static_grid(std::size_t n, std::uint64_t) {
  return std::make_unique<StaticAdversary>(builders::grid(n / 4, 4));
}
std::unique_ptr<Adversary> adv_static_complete(std::size_t n, std::uint64_t) {
  return std::make_unique<StaticAdversary>(builders::complete(n));
}
std::unique_ptr<Adversary> adv_static_shuffled(std::size_t n,
                                               std::uint64_t seed) {
  return std::make_unique<StaticAdversary>(builders::cycle(n), true, seed);
}
std::unique_ptr<Adversary> adv_random(std::size_t n, std::uint64_t seed) {
  return std::make_unique<RandomAdversary>(n, n / 3, seed);
}
std::unique_ptr<Adversary> adv_random_tree(std::size_t n, std::uint64_t seed) {
  return std::make_unique<RandomAdversary>(n, 0, seed);
}
std::unique_ptr<Adversary> adv_churn(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return std::make_unique<ChurnAdversary>(
      builders::random_connected(n, n / 2, rng), 2, seed);
}
std::unique_ptr<Adversary> adv_star_star(std::size_t n, std::uint64_t) {
  return std::make_unique<StarStarAdversary>(n);
}
std::unique_ptr<Adversary> adv_t_interval(std::size_t n, std::uint64_t seed) {
  return std::make_unique<TIntervalAdversary>(
      std::make_unique<RandomAdversary>(n, n / 4, seed), 3);
}

Configuration place_rooted(std::size_t n, std::size_t k, std::uint64_t) {
  return placement::rooted(n, k);
}
Configuration place_random(std::size_t n, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  return placement::uniform_random(n, k, rng);
}
Configuration place_grouped(std::size_t n, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  return placement::grouped(n, k, std::max<std::size_t>(2, k / 3), rng);
}

// Print a case as its name: gtest would otherwise dump its raw bytes,
// function pointers included, into the discovered test names, which
// would then change from build to build.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

class DispersionSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DispersionSweep, Theorem4HoldsOverSeeds) {
  const SweepCase& c = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto adversary = c.adversary(c.n, seed);
    const RunResult r = run(*adversary, c.placement(c.n, c.k, seed));
    SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
    expect_theorem4(r);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DispersionSweep,
    ::testing::Values(
        SweepCase{"path_rooted", 16, 16, adv_static_path, place_rooted},
        SweepCase{"path_random", 16, 12, adv_static_path, place_random},
        SweepCase{"grid_rooted", 16, 14, adv_static_grid, place_rooted},
        SweepCase{"grid_grouped", 16, 12, adv_static_grid, place_grouped},
        SweepCase{"complete_rooted", 12, 12, adv_static_complete,
                  place_rooted},
        SweepCase{"shuffled_cycle", 14, 11, adv_static_shuffled, place_random},
        SweepCase{"random_rooted", 18, 14, adv_random, place_rooted},
        SweepCase{"random_random", 18, 13, adv_random, place_random},
        SweepCase{"random_grouped", 18, 15, adv_random, place_grouped},
        SweepCase{"tree_rooted", 15, 12, adv_random_tree, place_rooted},
        SweepCase{"tree_random", 15, 11, adv_random_tree, place_random},
        SweepCase{"churn_rooted", 16, 13, adv_churn, place_rooted},
        SweepCase{"churn_grouped", 16, 12, adv_churn, place_grouped},
        SweepCase{"star_star_rooted", 14, 11, adv_star_star, place_rooted},
        SweepCase{"star_star_random", 14, 10, adv_star_star, place_random},
        SweepCase{"t_interval_random", 15, 12, adv_t_interval, place_random}),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      return param_info.param.name;
    });

// Larger scale smoke: k = n = 64 on a fully dynamic random graph.
TEST(DispersionScale, SixtyFourRobotsFullyDynamic) {
  RandomAdversary adv(64, 30, 5);
  const RunResult r = run(adv, placement::rooted(64, 64),
                          core::dispersion_factory_memoized());
  expect_theorem4(r);
  EXPECT_LE(r.rounds, 63u);  // at least one new node per round from rooted
}

}  // namespace
}  // namespace dyndisp
