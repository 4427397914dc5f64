// Registry-driven adversary conformance suite: EVERY adversary registered
// in the campaign registry -- including ones added after this file was
// written -- must emit valid 1-interval connected round graphs for many
// rounds, several seeds, and evolving robot configurations. The suite is
// parameterized over Registry::adversary_names(), so registering a new
// adversary automatically enrolls it here (and in the dyndisp_check
// fuzzer), with no hand-enumerated switch to keep in sync.
//
// The adversaries run inside the real Engine (not a bare next_graph loop)
// so plan-probing adversaries (path-trap, clique-trap) get the probe they
// need, and the graphs checked are exactly the graphs an execution sees.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include "campaign/registry.h"
#include "check/oracles.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/path_trap_adversary.h"
#include "dynamic/scripted_adversary.h"
#include "dynamic/static_adversary.h"
#include "dynamic/t_interval_adversary.h"
#include "dynamic/validator.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

class AdversaryConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(AdversaryConformance, EveryEmittedGraphIsValid) {
  const auto& registry = campaign::Registry::instance();
  const std::string& name = GetParam();

  for (const std::uint64_t seed : {1ull, 5ull, 12ull}) {
    // Families may round the requested size (hypercube to a power of two,
    // grid/torus to their grid): always work with the adversary's actual
    // node count, never the requested one.
    auto adversary = registry.adversary(name, "random", 12, seed);
    const std::size_t n = adversary->node_count();
    ASSERT_GE(n, 2u) << name;
    const std::size_t k = std::max<std::size_t>(2, n / 2);

    Rng rng(seed * 31 + 7);
    const Configuration initial = placement::uniform_random(n, k, rng);
    const campaign::AlgorithmChoice algo = registry.algorithm("alg4", seed);

    EngineOptions options;
    Trace trace;
    options.on_round = record_into(trace);
    options.max_rounds = 40;  // traps never disperse; bound the run

    Engine engine(*adversary, initial, algo.factory, options);
    const RunResult result = engine.run();

    ASSERT_FALSE(trace.records().empty()) << name;
    for (const auto& rec : trace.records()) {
      ASSERT_EQ(rec.graph.node_count(), n)
          << name << " seed " << seed << " round " << rec.round;
      const std::string diag = validate_round_graph(rec.graph, n);
      ASSERT_TRUE(diag.empty())
          << name << " seed " << seed << " round " << rec.round << ": "
          << diag;
    }
  }
}

// Pins the same_as_last() reuse-hint contract for every registered
// adversary, in both modes the engine can operate in:
//  - always-call mode: whenever the hint is true, the graph next_graph then
//    returns must be operator==-equal (and fingerprint-equal) to the
//    previous round's graph;
//  - skip mode: a second instance with identical seed never calls
//    next_graph while the hint is true, and the graph it holds must still
//    track the always-call instance's emissions bit-for-bit (the hint must
//    survive skipped calls -- the staleness half of the contract).
TEST_P(AdversaryConformance, SameAsLastHintIsHonest) {
  const auto& registry = campaign::Registry::instance();
  const std::string& name = GetParam();

  for (const std::uint64_t seed : {2ull, 9ull}) {
    auto reference = registry.adversary(name, "random", 12, seed);
    auto skipper = registry.adversary(name, "random", 12, seed);
    const std::size_t n = reference->node_count();
    const std::size_t k = std::max<std::size_t>(2, n / 2);
    Rng rng(seed * 17 + 3);
    const Configuration conf = placement::uniform_random(n, k, rng);
    for (Adversary* adv : {reference.get(), skipper.get()}) {
      if (adv->wants_plan_probe()) {
        adv->set_plan_probe(
            [k](const Graph&) { return MovePlan(k, kInvalidPort); });
      }
    }

    Graph prev, held;
    bool have_prev = false, have_held = false;
    for (Round r = 0; r < 32; ++r) {
      const bool hint = reference->same_as_last(r, conf);
      const Graph emitted = reference->next_graph(r, conf);
      if (hint) {
        ASSERT_TRUE(have_prev) << name << " claimed reuse before emitting";
        ASSERT_EQ(emitted.fingerprint(), prev.fingerprint())
            << name << " seed " << seed << " round " << r;
        ASSERT_TRUE(emitted == prev)
            << name << " seed " << seed << " round " << r;
      }
      prev = emitted;
      have_prev = true;

      if (skipper->same_as_last(r, conf)) {
        ASSERT_TRUE(have_held) << name << " claimed reuse before emitting";
      } else {
        held = skipper->next_graph(r, conf);
        have_held = true;
      }
      ASSERT_EQ(held.fingerprint(), emitted.fingerprint())
          << name << " seed " << seed << " round " << r
          << ": skip-mode graph diverged";
      ASSERT_TRUE(held == emitted)
          << name << " seed " << seed << " round " << r
          << ": skip-mode graph diverged";
    }
  }
}

TEST(SameAsLast, StaticClaimsReuseOnlyAfterFirstEmission) {
  StaticAdversary adv(Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}}));
  const Configuration conf(4, {0, 1});
  EXPECT_FALSE(adv.same_as_last(0, conf));
  adv.next_graph(0, conf);
  EXPECT_TRUE(adv.same_as_last(1, conf));
  EXPECT_TRUE(adv.same_as_last(100, conf));
}

TEST(SameAsLast, StaticPortShuffleNeverClaimsReuse) {
  StaticAdversary adv(Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}}),
                      /*reshuffle_ports=*/true, /*seed=*/5);
  const Configuration conf(4, {0, 1});
  adv.next_graph(0, conf);
  EXPECT_FALSE(adv.same_as_last(1, conf));
}

TEST(SameAsLast, TIntervalClaimsInsideWindowOnly) {
  auto inner = std::make_unique<StaticAdversary>(
      Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}}));
  TIntervalAdversary adv(std::move(inner), /*t=*/3);
  const Configuration conf(4, {0, 1});
  EXPECT_FALSE(adv.same_as_last(0, conf));
  adv.next_graph(0, conf);
  EXPECT_TRUE(adv.same_as_last(1, conf));
  EXPECT_TRUE(adv.same_as_last(2, conf));
  EXPECT_FALSE(adv.same_as_last(3, conf));  // window boundary: consult inner
}

TEST(SameAsLast, ScriptedHonorsRepeatedLinesAndHorizon) {
  const Graph a = Graph::from_edges(3, {{0, 1}, {1, 2}});
  const Graph b = Graph::from_edges(3, {{0, 2}, {1, 2}});
  ScriptedAdversary adv({a, a, b, b});
  const Configuration conf(3, {0, 1});
  EXPECT_FALSE(adv.same_as_last(0, conf));
  adv.next_graph(0, conf);
  EXPECT_TRUE(adv.same_as_last(1, conf));   // identical script line
  EXPECT_FALSE(adv.same_as_last(2, conf));  // a -> b
  adv.next_graph(2, conf);
  EXPECT_TRUE(adv.same_as_last(3, conf));
  // Past the horizon the script repeats its last graph forever -- even when
  // the engine skipped the intermediate calls (stale last_idx_).
  EXPECT_TRUE(adv.same_as_last(1000, conf));
}

// Pins the set_thread_pool()/next_graph_into() contract for every
// registered adversary: the emitted graph sequence must be byte-identical
// (operator== compares full port-labeled adjacency) across
//  - next_graph() into a fresh Graph with no pool,
//  - next_graph_into() recycling one Graph with no pool, and
//  - next_graph_into() recycling one Graph with a multi-lane ThreadPool,
// at sizes straddling parallel_for's serial cutoff (192): n=96 and n=150 run
// serially even under a pool, n=400 is the genuinely fanned-out path. Every
// emission is also structurally validated at these larger sizes.
TEST_P(AdversaryConformance, SerialAndParallelEmissionsAreByteIdentical) {
  const auto& registry = campaign::Registry::instance();
  const std::string& name = GetParam();

  for (const std::size_t requested : {96u, 150u, 400u}) {
    const std::uint64_t seed = 21 + requested;
    auto fresh = registry.adversary(name, "random", requested, seed);
    auto serial = registry.adversary(name, "random", requested, seed);
    auto threaded = registry.adversary(name, "random", requested, seed);
    const std::size_t n = fresh->node_count();
    const std::size_t k = std::max<std::size_t>(2, n / 2);
    Rng rng(seed * 13 + 1);
    const Configuration conf = placement::uniform_random(n, k, rng);
    ThreadPool pool(3);
    threaded->set_thread_pool(&pool);
    for (Adversary* adv : {fresh.get(), serial.get(), threaded.get()}) {
      if (adv->wants_plan_probe()) {
        adv->set_plan_probe(
            [k](const Graph&) { return MovePlan(k, kInvalidPort); });
      }
    }

    Graph from_serial, from_pool;
    for (Round r = 0; r < 8; ++r) {
      const Graph reference = fresh->next_graph(r, conf);
      serial->next_graph_into(r, conf, from_serial);
      threaded->next_graph_into(r, conf, from_pool);
      ASSERT_EQ(reference.fingerprint(), from_serial.fingerprint())
          << name << " n=" << n << " round " << r << ": next_graph_into"
          << " diverged from next_graph";
      ASSERT_TRUE(reference == from_serial)
          << name << " n=" << n << " round " << r;
      ASSERT_EQ(reference.fingerprint(), from_pool.fingerprint())
          << name << " n=" << n << " round " << r << ": pooled emission"
          << " diverged from serial";
      ASSERT_TRUE(reference == from_pool)
          << name << " n=" << n << " round " << r;
      const std::string diag = validate_round_graph(from_pool, n);
      ASSERT_TRUE(diag.empty())
          << name << " n=" << n << " round " << r << ": " << diag;
    }
  }
}

// The broadcast-reference oracle under Algorithm 4 against every registered
// adversary: each round's published broadcast equals make_all_packets on
// that round's graph and start-of-round configuration. On the replaying
// adversaries the same_as_last hint must actually have fired, so replayed
// rounds are among those compared.
TEST_P(AdversaryConformance, EveryBroadcastMatchesAFreshAssembly) {
  const auto& registry = campaign::Registry::instance();
  const std::string& name = GetParam();
  const bool replays = name == "static" || name == "t-interval";

  for (const std::uint64_t seed : {1ull, 5ull, 12ull}) {
    SCOPED_TRACE(name + " seed " + std::to_string(seed));
    auto adversary = registry.adversary(name, "random", 12, seed);
    const std::size_t n = adversary->node_count();
    const std::size_t k = std::max<std::size_t>(2, n / 2);
    const campaign::AlgorithmChoice algo = registry.algorithm("alg4", seed);

    EngineOptions options;
    options.max_rounds = 40;  // traps never disperse; bound the run
    const auto compared = check::install_broadcast_reference(options);
    ASSERT_NE(compared, nullptr);
    Engine engine(*adversary, placement::rooted(n, k), algo.factory, options);
    RunResult result;
    try {
      result = engine.run();
    } catch (const InvariantViolation& e) {
      FAIL() << e.what();
    }
    EXPECT_EQ(*compared, result.rounds);
    if (replays) {
      EXPECT_GT(result.stats.graph_reuses, 0u);
    }
  }
}

// Crash rounds are compared too. A robot that crashes after Communicate
// was on the wire that round, and the snapshot's start-of-round
// configuration is taken before it vanishes, so the reference rebuilds
// exactly the broadcast the robots received.
TEST(BroadcastReference, ComparesRoundsWithAfterCommunicateCrashes) {
  const auto& registry = campaign::Registry::instance();
  for (const char* name : {"random", "t-interval"}) {
    SCOPED_TRACE(name);
    auto adversary = registry.adversary(name, "random", 24, 3);
    const std::size_t n = adversary->node_count();
    const std::size_t k = 16;
    EngineOptions options;
    options.max_rounds = 100 * k;
    const auto compared = check::install_broadcast_reference(options);
    ASSERT_NE(compared, nullptr);
    std::vector<CrashEvent> crashes;
    for (Round r = 0; r < 4; ++r)
      crashes.push_back({r, static_cast<RobotId>(3 * r + 2),
                         CrashPhase::kAfterCommunicate});
    Engine engine(*adversary, placement::rooted(n, k),
                  registry.algorithm("alg4", 3).factory, options,
                  FaultSchedule(std::move(crashes)));
    RunResult result;
    try {
      result = engine.run();
    } catch (const InvariantViolation& e) {
      FAIL() << e.what();
    }
    EXPECT_EQ(result.crashed, 4u);
    EXPECT_TRUE(result.dispersed);
    EXPECT_EQ(*compared, result.rounds);
  }
}

// The regenerating adversaries draw from one counter-stream builder at every
// n, down to the single node and the single edge: every emission is a valid
// round graph, and a lone robot on a lone node is dispersed before round 0.
TEST(EdgeSizes, RandomAdversariesServeOneTwoAndThreeNodes) {
  const auto& registry = campaign::Registry::instance();
  for (const char* name : {"random", "tree", "t-interval"}) {
    for (const std::size_t n : {1u, 2u, 3u}) {
      auto adversary = registry.adversary(name, "random", n, 7);
      ASSERT_EQ(adversary->node_count(), n) << name;
      const Configuration conf = placement::rooted(n, 1);
      Graph recycled;
      for (Round r = 0; r < 6; ++r) {
        adversary->next_graph_into(r, conf, recycled);
        const std::string diag = validate_round_graph(recycled, n);
        ASSERT_TRUE(diag.empty())
            << name << " n=" << n << " round " << r << ": " << diag;
      }
    }
  }

  auto adversary = registry.adversary("random", "random", 1, 7);
  Engine engine(*adversary, placement::rooted(1, 1),
                registry.algorithm("alg4", 7).factory, EngineOptions{});
  const RunResult result = engine.run();
  EXPECT_TRUE(result.dispersed);
  EXPECT_EQ(result.rounds, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AdversaryConformance,
    ::testing::ValuesIn(campaign::Registry::instance().adversary_names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string id = param_info.param;
      std::replace(id.begin(), id.end(), '-', '_');
      return id;
    });

// -- Probe copies: copy_into for every registered algorithm -------------
//
// Plan probes refill one retained robot arena per engine through
// RobotAlgorithm::copy_into instead of cloning k robots per probe. The
// contract: a successful copy_into leaves the target indistinguishable from
// clone(), and a target of another concrete type is declined untouched.

std::vector<std::uint8_t> state_bytes(const RobotAlgorithm& robot) {
  BitWriter w;
  robot.serialize(w);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.push_back(static_cast<std::uint8_t>(w.bit_count() % 8));
  return bytes;
}

/// The robots of one finished run of `name` (rooted, random adversary):
/// `rounds` rounds of step history. The engine owns the robots.
struct SteppedRobots {
  std::unique_ptr<Adversary> adversary;
  std::unique_ptr<Engine> engine;
  std::vector<RobotAlgorithm*> robots;
};

SteppedRobots step_robots(const std::string& name, Round rounds) {
  const auto& registry = campaign::Registry::instance();
  const campaign::AlgorithmChoice algo = registry.algorithm(name, 4);
  SteppedRobots out;
  out.adversary = registry.adversary("random", "random", 16, 4);
  const std::size_t n = out.adversary->node_count();
  EngineOptions options;
  options.comm = algo.needs_global ? CommModel::kGlobal : CommModel::kLocal;
  options.neighborhood_knowledge = algo.needs_knowledge;
  options.max_rounds = rounds;
  std::vector<RobotAlgorithm*>& robots = out.robots;
  out.engine = std::make_unique<Engine>(
      *out.adversary, placement::rooted(n, 8, 0),
      [&](RobotId id, std::size_t k) {
        std::unique_ptr<RobotAlgorithm> robot = algo.factory(id, k);
        robots.push_back(robot.get());
        return robot;
      },
      options);
  out.engine->run();
  return out;
}

/// A robot type no registry algorithm uses, with visible state.
class MarkerRobot final : public RobotAlgorithm {
 public:
  std::unique_ptr<RobotAlgorithm> clone() const override {
    return std::make_unique<MarkerRobot>(*this);
  }
  Port step(const RobotView&) override { return kInvalidPort; }
  void serialize(BitWriter& out) const override { out.write(0x5a5, 12); }
  std::string name() const override { return "marker"; }
  bool requires_global_comm() const override { return false; }
  bool requires_neighborhood() const override { return false; }
};

class AlgorithmCopyConformance
    : public ::testing::TestWithParam<std::string> {};

TEST_P(AlgorithmCopyConformance, CopyIntoMatchesClone) {
  const std::string& name = GetParam();
  const std::vector<Round> histories = {1, 3, 6};
  for (const Round a : histories) {
    for (const Round b : histories) {
      if (a == b) continue;
      // Fresh runs per pair: a copied-over robot no longer has its history.
      const SteppedRobots from = step_robots(name, a);
      const SteppedRobots into = step_robots(name, b);
      const auto& src = from.robots;
      const auto& dst = into.robots;
      ASSERT_EQ(src.size(), dst.size()) << name;
      for (std::size_t i = 0; i < src.size(); ++i) {
        // Copy into ANOTHER robot (next ID, other history), so even a
        // state that is only the robot's ID must really be overwritten.
        RobotAlgorithm& target = *dst[(i + 1) % dst.size()];
        const std::vector<std::uint8_t> expected =
            state_bytes(*src[i]->clone());
        ASSERT_TRUE(src[i]->copy_into(target))
            << name << ": copy_into declined its own type";
        EXPECT_EQ(state_bytes(target), expected)
            << name << " robot " << i + 1 << " after " << a
            << " rounds, copied over " << b;
        EXPECT_EQ(target.name(), src[i]->name());
      }
    }
  }
}

TEST_P(AlgorithmCopyConformance, CopyIntoDeclinesAnotherConcreteType) {
  const std::string& name = GetParam();
  const SteppedRobots run = step_robots(name, 3);
  MarkerRobot marker;
  const std::vector<std::uint8_t> before = state_bytes(marker);
  for (const RobotAlgorithm* robot : run.robots) {
    EXPECT_FALSE(robot->copy_into(marker)) << name;
    EXPECT_EQ(state_bytes(marker), before) << name << " touched the target";
  }
  // Registry algorithms of another concrete type decline as well.
  const auto& registry = campaign::Registry::instance();
  for (const std::string& other : registry.algorithm_names()) {
    const auto target = registry.algorithm(other, 4).factory(1, 8);
    const RobotAlgorithm& source = *run.robots.front();
    if (typeid(*target) == typeid(source)) continue;
    const std::vector<std::uint8_t> target_before = state_bytes(*target);
    EXPECT_FALSE(source.copy_into(*target)) << name << " into " << other;
    EXPECT_EQ(state_bytes(*target), target_before) << name << " into " << other;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AlgorithmCopyConformance,
    ::testing::ValuesIn(campaign::Registry::instance().algorithm_names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string id = param_info.param;
      std::replace(id.begin(), id.end(), '-', '_');
      return id;
    });

/// The path-trap adversary with every plan probe run twice on the same
/// candidate, counting the repeats that planned differently.
class DoubleProbeTrap final : public Adversary {
 public:
  explicit DoubleProbeTrap(std::size_t n) : inner_(n) {}
  std::string name() const override { return inner_.name(); }
  std::size_t node_count() const override { return inner_.node_count(); }
  bool wants_plan_probe() const override { return true; }
  void next_graph_into(Round r, const Configuration& conf,
                       Graph& out) override {
    inner_.next_graph_into(r, conf, out);
  }
  void set_plan_probe(PlanProbe probe) override {
    inner_.set_plan_probe([this, probe = std::move(probe)](const Graph& g) {
      MovePlan first = probe(g);
      const MovePlan second = probe(g);
      ++probes;
      if (first != second) ++mismatches;
      if (std::any_of(first.begin(), first.end(),
                      [](Port p) { return p != kInvalidPort; }))
        ++moving_probes;
      return first;
    });
  }
  std::size_t failures() const { return inner_.failures(); }

  std::size_t probes = 0;
  std::size_t mismatches = 0;
  std::size_t moving_probes = 0;

 private:
  PathTrapAdversary inner_;
};

// The DFS baseline and the random walker carry state that step() mutates
// (settled flags and rotors; a PRNG), so a probe arena that leaked one dry
// run's state into the next would plan differently on the repeat. Doubling
// every probe must also leave the run itself unchanged.
TEST(ProbeArena, RepeatedProbeOfOneCandidateIsIdentical) {
  constexpr std::size_t kNodes = 24, kRobots = 16;
  Rng rng(3);
  // Scattered robots put several multiplicity nodes inside the trap's path,
  // where a robot has two ports to choose from.
  const Configuration initial = placement::uniform_random(kNodes, kRobots, rng);
  for (const char* name : {"dfs", "random-walk"}) {
    const campaign::AlgorithmChoice algo =
        campaign::Registry::instance().algorithm(name, 1);
    EngineOptions options;
    options.comm = CommModel::kLocal;
    options.neighborhood_knowledge = false;
    options.max_rounds = 40;

    DoubleProbeTrap doubled(kNodes);
    const RunResult twice =
        Engine(doubled, initial, algo.factory, options)
            .run();
    PathTrapAdversary single(kNodes);
    const RunResult once =
        Engine(single, initial, algo.factory, options)
            .run();

    EXPECT_GT(doubled.moving_probes, 0u) << name;  // the dry runs step robots
    EXPECT_EQ(doubled.mismatches, 0u)
        << name << ": of " << doubled.probes << " probes";
    EXPECT_EQ(twice.rounds, once.rounds) << name;
    EXPECT_EQ(twice.final_config, once.final_config) << name;
    EXPECT_EQ(doubled.failures(), single.failures()) << name;
  }
}

TEST(AdversaryConformanceSuite, CoversTheWholeRegistry) {
  // Guard against the suite silently becoming vacuous: the registry ships
  // at least the adversaries the paper's experiments use.
  const auto names = campaign::Registry::instance().adversary_names();
  EXPECT_GE(names.size(), 11u);
  for (const char* required :
       {"random", "star-star", "static", "ring", "path-trap", "clique-trap"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << required;
  }
}

}  // namespace
}  // namespace dyndisp
