// Tests for engine mechanics: model-requirement enforcement, arrival ports,
// state exchange, round accounting, invalid-port rejection, traces, and the
// adversary plan probe.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/experiment.h"
#include "core/dispersion.h"
#include "dynamic/random_adversary.h"
#include "dynamic/static_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

// A probe-ready scripted robot for engine mechanics tests: takes the exit
// ports it was constructed with, one per round, then stays.
class ScriptedRobot final : public RobotAlgorithm {
 public:
  ScriptedRobot(RobotId id, std::vector<Port> moves)
      : id_(id), moves_(std::move(moves)) {}

  std::unique_ptr<RobotAlgorithm> clone() const override {
    return std::make_unique<ScriptedRobot>(*this);
  }
  Port step(const RobotView& view) override {
    last_view_degree_ = view.degree;
    last_arrival_ = view.arrival_port;
    const std::size_t i = next_++;
    return i < moves_.size() ? moves_[i] : kInvalidPort;
  }
  void serialize(BitWriter& out) const override {
    out.write(next_, 16);  // the cursor is the persistent state
  }
  std::string name() const override { return "scripted"; }
  bool requires_global_comm() const override { return false; }
  bool requires_neighborhood() const override { return false; }

  Port last_arrival() const { return last_arrival_; }

 private:
  // NOLINTNEXTLINE-dyndisp(metering-serialize-fields): test probe identity,
  // fixed at construction; the metered state is only the cursor.
  RobotId id_;
  // NOLINTNEXTLINE-dyndisp(metering-serialize-fields): the immutable test
  // script (program, not state); the cursor next_ is what is metered.
  std::vector<Port> moves_;
  std::size_t next_ = 0;
  // NOLINTNEXTLINE-dyndisp(metering-serialize-fields): engine-observation
  // scratch read back by assertions, not robot memory.
  std::size_t last_view_degree_ = 0;
  // NOLINTNEXTLINE-dyndisp(metering-serialize-fields): engine-observation
  // scratch read back by assertions, not robot memory.
  Port last_arrival_ = kInvalidPort;
};

TEST(Engine, RejectsNodeCountMismatch) {
  StaticAdversary adv(builders::path(4));
  EXPECT_THROW(Engine(adv, placement::rooted(5, 2), core::dispersion_factory(),
                      EngineOptions{}),
               std::invalid_argument);
}

TEST(Engine, EnforcesGlobalCommRequirement) {
  StaticAdversary adv(builders::path(4));
  EngineOptions opt;
  opt.comm = CommModel::kLocal;
  EXPECT_THROW(
      Engine(adv, placement::rooted(4, 2), core::dispersion_factory(), opt),
      std::invalid_argument);
}

TEST(Engine, EnforcesNeighborhoodRequirement) {
  StaticAdversary adv(builders::path(4));
  EngineOptions opt;
  opt.neighborhood_knowledge = false;
  EXPECT_THROW(
      Engine(adv, placement::rooted(4, 2), core::dispersion_factory(), opt),
      std::invalid_argument);
}

TEST(Engine, AllowModelMismatchOverrides) {
  StaticAdversary adv(builders::path(4));
  EngineOptions opt;
  opt.neighborhood_knowledge = false;
  opt.allow_model_mismatch = true;
  opt.max_rounds = 1;
  // Construction succeeds; the algorithm itself asserts on mismatched views,
  // so do not run it -- construction is what this test covers.
  EXPECT_NO_THROW(
      Engine(adv, placement::rooted(4, 2), core::dispersion_factory(), opt));
}

TEST(Engine, RejectsRandomSubsetProbabilityOutsideUnitInterval) {
  StaticAdversary adv(builders::path(4));
  EngineOptions opt;
  opt.activation = Activation::kRandomSubset;
  for (const double p : {0.0, -0.5, 1.5, std::nan("")}) {
    SCOPED_TRACE(p);
    opt.activation_probability = p;
    EXPECT_THROW(
        Engine(adv, placement::rooted(4, 2), core::dispersion_factory(), opt),
        std::invalid_argument);
  }
  opt.activation_probability = 1.0;
  EXPECT_NO_THROW(
      Engine(adv, placement::rooted(4, 2), core::dispersion_factory(), opt));
  // The probability is read only under kRandomSubset.
  opt.activation = Activation::kSynchronous;
  opt.activation_probability = std::nan("");
  EXPECT_NO_THROW(
      Engine(adv, placement::rooted(4, 2), core::dispersion_factory(), opt));
}

TEST(Engine, RejectsInvalidPortFromRobot) {
  StaticAdversary adv(builders::path(3));
  const AlgorithmFactory factory = [](RobotId id, std::size_t) {
    return std::make_unique<ScriptedRobot>(id, std::vector<Port>{7});
  };
  EngineOptions opt;
  opt.max_rounds = 3;
  Engine engine(adv, placement::rooted(3, 2), factory, opt);
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Engine, ArrivalPortReportedNextRound) {
  // Path 0-1-2: robot 3 moves 0->1 in round 0 (via port 1); robots 1 and 2
  // keep a multiplicity at node 0, so round 1 still runs and robot 3
  // observes the port of node 1 through which it entered (port 1, the edge
  // back to node 0).
  StaticAdversary adv(builders::path(3));
  std::vector<ScriptedRobot*> instances;
  const AlgorithmFactory factory = [&](RobotId id, std::size_t) {
    auto robot = std::make_unique<ScriptedRobot>(
        id, id == 3 ? std::vector<Port>{1} : std::vector<Port>{});
    instances.push_back(robot.get());
    return robot;
  };
  EngineOptions opt;
  opt.max_rounds = 2;
  Engine engine(adv, placement::rooted(3, 3), factory, opt);
  const RunResult r = engine.run();
  EXPECT_FALSE(r.dispersed);  // robots 1,2 never separate (by script)
  ASSERT_EQ(instances.size(), 3u);
  EXPECT_EQ(instances[2]->last_arrival(), 1u);
}

TEST(Engine, TraceRecordsMovesAndProgress) {
  StaticAdversary adv(builders::path(4));
  EngineOptions opt;
  Trace trace;
  opt.on_round = record_into(trace);
  opt.max_rounds = 100;
  Engine engine(adv, placement::rooted(4, 3), core::dispersion_factory(), opt);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
  ASSERT_EQ(trace.size(), r.rounds);
  std::size_t total_new = 0;
  for (const auto& rec : trace.records()) {
    EXPECT_EQ(rec.graph.node_count(), 4u);
    total_new += rec.newly_occupied;
    EXPECT_GE(rec.newly_occupied, 1u);  // Lemma 7 visible in the trace
  }
  EXPECT_EQ(total_new, 3u - 1u);  // from 1 occupied to 3 occupied
  EXPECT_FALSE(trace.describe_round(0).empty());
}

TEST(Engine, PacketsCountedPerOccupiedNode) {
  StaticAdversary adv(builders::path(5));
  EngineOptions opt;
  opt.max_rounds = 100;
  Engine engine(adv, placement::rooted(5, 3), core::dispersion_factory(), opt);
  const RunResult r = engine.run();
  // Round 0: 1 occupied node -> 1 packet; round 1: 2 -> 2 packets.
  EXPECT_EQ(r.packets_sent, 1u + 2u);
}

TEST(Engine, MaxRoundsStopsNonTerminatingRun) {
  // A robot that never moves on a multiplicity node never disperses.
  StaticAdversary adv(builders::path(3));
  const AlgorithmFactory factory = [](RobotId id, std::size_t) {
    return std::make_unique<ScriptedRobot>(id, std::vector<Port>{});
  };
  EngineOptions opt;
  opt.max_rounds = 17;
  Engine engine(adv, placement::rooted(3, 2), factory, opt);
  const RunResult r = engine.run();
  EXPECT_FALSE(r.dispersed);
  EXPECT_EQ(r.rounds, 17u);
  EXPECT_EQ(r.stalled_rounds, 17u);
}

// Emits one fixed graph and counts the emissions asked of it.
class CountingAdversary final : public Adversary {
 public:
  explicit CountingAdversary(Graph g) : graph_(std::move(g)) {}
  std::string name() const override { return "counting"; }
  std::size_t node_count() const override { return graph_.node_count(); }
  void next_graph_into(Round, const Configuration&, Graph& out) override {
    ++calls;
    out = graph_;
  }
  std::size_t calls = 0;

 private:
  Graph graph_;
};

// A zero round budget plays no round: no graph is asked for, no observer
// fires, and an undispersed start stays undispersed.
TEST(Engine, ZeroMaxRoundsRunsNoRound) {
  CountingAdversary adv(builders::path(3));
  EngineOptions opt;
  opt.max_rounds = 0;
  std::size_t observed = 0;
  opt.on_round = [&observed](const RoundSnapshot&) { ++observed; };
  Engine engine(adv, placement::rooted(3, 2), core::dispersion_factory(), opt);
  const RunResult r = engine.run();
  EXPECT_FALSE(r.dispersed);
  EXPECT_EQ(r.rounds, 0u);
  EXPECT_EQ(adv.calls, 0u);
  EXPECT_EQ(observed, 0u);
  EXPECT_EQ(r.packets_sent, 0u);
  EXPECT_EQ(r.total_moves, 0u);
}

TEST(Engine, StalledRoundsZeroForAlgorithmFour) {
  RandomAdversary adv(10, 4, 3);
  EngineOptions opt;
  opt.max_rounds = 100;
  Engine engine(adv, placement::rooted(10, 8), core::dispersion_factory(),
                opt);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
  EXPECT_EQ(r.stalled_rounds, 0u);
}

TEST(Engine, AlgorithmNameExposed) {
  StaticAdversary adv(builders::path(3));
  Engine engine(adv, placement::rooted(3, 2), core::dispersion_factory(),
                EngineOptions{});
  EXPECT_EQ(engine.algorithm_name(), "Dispersion_Dynamic(Alg4)");
}

// ---- experiment harness ----

TEST(Experiment, SweepAggregatesTrials) {
  analysis::TrialSpec spec;
  spec.adversary = [](std::uint64_t seed) -> std::unique_ptr<Adversary> {
    return std::make_unique<RandomAdversary>(12, 4, seed);
  };
  spec.placement = [](std::uint64_t seed) {
    Rng rng(seed);
    return placement::uniform_random(12, 9, rng);
  };
  spec.algorithm = core::dispersion_factory();
  spec.options.max_rounds = 1000;
  const analysis::SweepSummary s = analysis::run_sweep(spec, 10);
  EXPECT_EQ(s.trials, 10u);
  EXPECT_EQ(s.dispersed_count, 10u);
  EXPECT_EQ(s.rounds.count(), 10u);
  EXPECT_LE(s.rounds.max(), 9.0);  // k = 9: Theorem 4
}

TEST(Experiment, TrialsAreSeedDeterministic) {
  analysis::TrialSpec spec;
  spec.adversary = [](std::uint64_t seed) -> std::unique_ptr<Adversary> {
    return std::make_unique<RandomAdversary>(10, 3, seed);
  };
  spec.placement = [](std::uint64_t seed) {
    Rng rng(seed);
    return placement::uniform_random(10, 7, rng);
  };
  spec.algorithm = core::dispersion_factory();
  spec.options.max_rounds = 1000;
  const RunResult a = analysis::run_trial(spec, 42);
  const RunResult b = analysis::run_trial(spec, 42);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_TRUE(a.final_config == b.final_config);
}

}  // namespace
}  // namespace dyndisp
