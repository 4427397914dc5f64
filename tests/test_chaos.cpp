// Chaos/property suite: random combinations of adversary, placement,
// planner variant, crash schedule, and activation model. Whatever the
// combination, the invariants that survive by design must hold:
//   * every adversary-emitted graph is valid (engine validates),
//   * the run disperses within a generous horizon,
//   * alive robots end on distinct nodes,
//   * metered memory stays at ceil(log2(k+1)) bits for Algorithm 4,
//   * under synchronous fault-free execution, rounds <= k (Theorem 4) and
//     the trace shows >= 1 newly occupied node per round (Lemma 7),
//   * the dynamic diameter and max degree of the emitted sequence are
//     consistent with the recorded trace.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/verify.h"
#include "campaign/registry.h"
#include "core/dispersion.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "util/bits.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

/// The sweep draws adversaries from the campaign registry instead of a
/// hand-enumerated switch, so a newly registered adversary is chaos-tested
/// automatically. The impossibility traps are excluded: they exist to
/// PREVENT dispersion, which this suite asserts (their graph validity is
/// covered by test_conformance.cpp).
std::unique_ptr<Adversary> random_adversary(std::size_t n, Rng& rng) {
  static const std::vector<std::string> pool = [] {
    std::vector<std::string> names;
    for (const std::string& name :
         campaign::Registry::instance().adversary_names()) {
      if (name != "path-trap" && name != "clique-trap") names.push_back(name);
    }
    return names;
  }();
  // Consulted by the static adversaries only; torus is omitted because it
  // needs n >= 7 and the sweep goes down to n = 4.
  static const char* const kFamilies[] = {"path",   "cycle", "complete",
                                          "grid",   "btree", "random"};
  const std::string& name = pool[rng.below(pool.size())];
  const char* family = kFamilies[rng.below(6)];
  return campaign::Registry::instance().adversary(name, family, n,
                                                  rng.next_u64());
}

Configuration random_placement(std::size_t n, std::size_t k, Rng& rng) {
  switch (rng.below(3)) {
    case 0:
      return placement::rooted(n, k, static_cast<NodeId>(rng.below(n)));
    case 1:
      return placement::uniform_random(n, k, rng);
    default:
      return placement::grouped(
          n, k, 1 + rng.below(std::min(k, n) - 1 ? std::min(k, n) - 1 : 1),
          rng);
  }
}

core::PlannerConfig random_config(Rng& rng) {
  core::PlannerConfig config;
  config.tree = rng.chance(0.5) ? core::PlannerConfig::Tree::kBfs
                                : core::PlannerConfig::Tree::kDfs;
  config.max_paths = rng.below(3);  // 0 = unlimited, 1, 2
  return config;
}

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, InvariantsSurviveArbitraryCombinations) {
  Rng rng(GetParam() * 7919 + 13);
  const std::size_t requested_n = 4 + rng.below(28);

  auto adversary = random_adversary(requested_n, rng);
  // Families may round the requested size (grid, hypercube, torus); k and
  // the placement must fit the graphs the adversary actually emits.
  const std::size_t n = adversary->node_count();
  const std::size_t k = 2 + rng.below(n - 1);
  Configuration initial = random_placement(n, k, rng);

  const bool with_faults = rng.chance(0.4);
  const bool semi_sync = rng.chance(0.3);
  FaultSchedule faults = FaultSchedule::none();
  std::size_t f = 0;
  if (with_faults) {
    f = rng.below(k);
    Rng fr(rng.next_u64());
    faults = FaultSchedule::random(k, f, 2 * k + 1, fr);
  }

  EngineOptions opt;
  opt.record_progress = true;
  // Trace-derived dynamic quantities: the round graphs, as emitted.
  DynamicGraphLog log;
  opt.on_round = [&log](const RoundSnapshot& s) { log.record(s.graph); };
  // Semi-synchronous runs have no theorem-backed round bound; the worst
  // registry combination observed (per-round port shuffle, DFS tree,
  // max_paths=1, activation ~0.5) needs ~500k rounds, so give them room.
  opt.max_rounds = semi_sync ? 1000 * k + 200 : 200 * k + 200;
  if (semi_sync) {
    opt.activation = Activation::kRandomSubset;
    opt.activation_probability = 0.4 + rng.uniform01() * 0.6;
    opt.activation_seed = rng.next_u64();
  }

  Engine engine(*adversary, initial,
                core::dispersion_factory_with_config(random_config(rng),
                                                     rng.chance(0.5)),
                opt, faults);
  const RunResult r = engine.run();

  SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
               " adversary=" + adversary->name() +
               " faults=" + std::to_string(f) +
               " semi_sync=" + std::to_string(semi_sync));

  // Eventual dispersion, always.
  EXPECT_TRUE(r.dispersed);
  EXPECT_TRUE(r.final_config.is_dispersed());

  // Memory: the robot ID, nothing else, under every combination.
  EXPECT_LE(r.max_memory_bits, bit_width_for(k + 1));

  // Synchronous fault-free runs obey the hard Theorem 4 bound and Lemma 7.
  if (!with_faults && !semi_sync) {
    EXPECT_LE(r.rounds, k);
    EXPECT_EQ(r.stalled_rounds, 0u);
    EXPECT_TRUE(analysis::check_progress_every_round(r).empty())
        << analysis::check_progress_every_round(r);
  }

  // Trace-derived dynamic quantities are well defined.
  if (log.rounds() > 0) {
    EXPECT_GE(log.dynamic_max_degree(), 1u);
    EXPECT_LT(log.dynamic_diameter(), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Range<std::uint64_t>(1, 121));

}  // namespace
}  // namespace dyndisp
