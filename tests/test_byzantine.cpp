// Tests for the Byzantine exploration (paper future-work #3, negative
// result): lying packets deadlock or degrade Algorithm 4 in measurable,
// specific ways -- and honest runs are bit-identical with the Byzantine
// machinery wired in but no liars configured.
#include <gtest/gtest.h>

#include <memory>

#include "core/dispersion.h"
#include "dynamic/random_adversary.h"
#include "dynamic/static_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "sim/byzantine.h"
#include "sim/engine.h"

namespace dyndisp {
namespace {

EngineOptions options_with(std::shared_ptr<const ByzantineModel> model,
                           Round horizon) {
  EngineOptions opt;
  opt.max_rounds = horizon;
  opt.record_progress = true;
  opt.byzantine = std::move(model);
  return opt;
}

TEST(Byzantine, NoLiarsIsExactlyHonest) {
  const std::size_t n = 14, k = 10;
  RandomAdversary adv1(n, 5, 9), adv2(n, 5, 9);
  Engine honest(adv1, placement::rooted(n, k), core::dispersion_factory(),
                options_with(nullptr, 10 * k));
  Engine wired(adv2, placement::rooted(n, k), core::dispersion_factory(),
               options_with(std::make_shared<ByzantineModel>(
                                std::set<RobotId>{},
                                ByzantineLie::kHideMultiplicity),
                            10 * k));
  const RunResult a = honest.run(), b = wired.run();
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_TRUE(a.final_config == b.final_config);
}

TEST(Byzantine, HideMultiplicityDeadlocksItsNode) {
  // Robot 1 (the broadcaster of the rooted pile) lies "I am alone": the
  // node never looks like a multiplicity node, no spanning tree is ever
  // rooted there, and nobody ever leaves. A single liar defeats the
  // protocol outright -- the negative result.
  const std::size_t n = 10, k = 6;
  StaticAdversary adv(builders::path(n));
  auto model = std::make_shared<ByzantineModel>(
      std::set<RobotId>{1}, ByzantineLie::kHideMultiplicity);
  Engine engine(adv, placement::rooted(n, k), core::dispersion_factory(),
                options_with(model, 100 * k));
  const RunResult r = engine.run();
  EXPECT_FALSE(r.dispersed);
  EXPECT_EQ(r.max_occupied, 1u);  // literally nothing ever moved
  EXPECT_EQ(r.total_moves, 0u);
}

TEST(Byzantine, HideMultiplicityOffTheBroadcasterIsHarmless) {
  // A liar that is not its node's smallest robot never broadcasts, so the
  // same lie has no effect: dispersion completes within Theorem 4's bound.
  const std::size_t n = 10, k = 6;
  StaticAdversary adv(builders::path(n));
  auto model = std::make_shared<ByzantineModel>(
      std::set<RobotId>{k}, ByzantineLie::kHideMultiplicity);
  Engine engine(adv, placement::rooted(n, k), core::dispersion_factory(),
                options_with(model, 10 * k));
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
  EXPECT_LE(r.rounds, k);
}

TEST(Byzantine, HideEmptyNeighborsStallsNarrowFrontiers) {
  // Path graph, robots piled behind the liar: the only LeafNodeSet
  // candidate is the liar's node, and it claims to have no empty neighbor.
  // Algorithm 3 returns no paths; the component freezes (the graceful
  // degradation path in plan_component).
  const std::size_t n = 8;
  StaticAdversary adv(builders::path(n));
  // Robots {2,3}@0 and liar 1@1: component = nodes 0,1; node 1 is the only
  // node bordering an empty node (node 2), and robot 1 is its broadcaster.
  const Configuration conf = placement::explicit_positions(n, {1, 0, 0});
  auto model = std::make_shared<ByzantineModel>(
      std::set<RobotId>{1}, ByzantineLie::kHideEmptyNeighbors);
  Engine engine(adv, conf, core::dispersion_factory(),
                options_with(model, 200));
  const RunResult r = engine.run();
  EXPECT_FALSE(r.dispersed);
  EXPECT_EQ(r.total_moves, 0u);
}

TEST(Byzantine, ErraticMoverCannotStopOthersButBreaksItself) {
  // The erratic liar keeps wandering: the honest robots still spread out
  // (plans adapt every round), but dispersion as a stable configuration
  // can be broken indefinitely because the liar keeps crashing into
  // settled robots. We assert the honest robots' resilience -- max
  // occupied reaches at least k-1 -- without requiring termination.
  const std::size_t n = 14, k = 8;
  RandomAdversary adv(n, 5, 4);
  auto model = std::make_shared<ByzantineModel>(std::set<RobotId>{k},
                                                ByzantineLie::kErraticMoves);
  Engine engine(adv, placement::rooted(n, k), core::dispersion_factory(),
                options_with(model, 50 * k));
  const RunResult r = engine.run();
  EXPECT_GE(r.max_occupied, k - 1);
}

TEST(Byzantine, CrashToleranceIsNotByzantineTolerance) {
  // Contrast fixture for EXPERIMENTS.md: the same scenario where a CRASH
  // of robot 1 is tolerated perfectly (Theorem 5) deadlocks under a LIE by
  // robot 1.
  const std::size_t n = 10, k = 6;
  StaticAdversary adv1(builders::path(n)), adv2(builders::path(n));

  Engine crash_engine(adv1, placement::rooted(n, k),
                      core::dispersion_factory(), options_with(nullptr, 100),
                      FaultSchedule({{0, 1, CrashPhase::kBeforeCommunicate}}));
  const RunResult crashed = crash_engine.run();
  EXPECT_TRUE(crashed.dispersed);

  auto model = std::make_shared<ByzantineModel>(
      std::set<RobotId>{1}, ByzantineLie::kHideMultiplicity);
  Engine liar_engine(adv2, placement::rooted(n, k),
                     core::dispersion_factory(), options_with(model, 100));
  const RunResult lied = liar_engine.run();
  EXPECT_FALSE(lied.dispersed);
}

}  // namespace
}  // namespace dyndisp
