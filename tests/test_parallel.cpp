// Tests for the compute-phase thread pool and the determinism contract of
// EngineOptions::threads: the same run must produce a bitwise-identical
// RunResult at any thread count, for every Table-I model row, including
// probe-driven trap adversaries. Also pins the single-assembly invariant of
// the round pipeline (packets built exactly once per executed round).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baselines/blind_walk.h"
#include "baselines/dfs_dispersion.h"
#include "baselines/greedy_local.h"
#include "graph/builders.h"
#include "core/dispersion.h"
#include "dynamic/clique_trap_adversary.h"
#include "dynamic/path_trap_adversary.h"
#include "dynamic/random_adversary.h"
#include "dynamic/static_adversary.h"
#include "dynamic/t_interval_adversary.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "sim/sensing.h"
#include "util/parallel.h"
#include "util/phase_clock.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.for_each(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, HandlesCountSmallerThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.for_each(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, CountZeroRunsNothing) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.for_each(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::atomic<int>> hits(10);
  pool.for_each(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ReusableAcrossDispatches) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.for_each(100, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
  }
  EXPECT_EQ(sum.load(), 50L * (99 * 100 / 2));
}

TEST(ThreadPool, RethrowsLowestFaultingIndex) {
  // Indices 5 (caller's chunk) and 700 (a worker's chunk) both throw; the
  // sequential loop would have surfaced index 5 first, so for_each must too.
  ThreadPool pool(4);
  try {
    pool.for_each(1000, [](std::size_t i) {
      if (i == 5 || i == 700) throw std::runtime_error("idx " + std::to_string(i));
    });
    FAIL() << "expected for_each to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "idx 5");
  }
}

TEST(ThreadPool, PropagatesWorkerOnlyException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_each(1000,
                             [](std::size_t i) {
                               if (i == 900) throw std::runtime_error("boom");
                             }),
               std::runtime_error);
}

TEST(ThreadPool, SurvivesAfterException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_each(100,
                             [](std::size_t i) {
                               if (i == 50) throw std::runtime_error("once");
                             }),
               std::runtime_error);
  std::atomic<int> calls{0};
  pool.for_each(100, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 100);
}

TEST(ParallelFor, NullPoolRunsSequentiallyInOrder) {
  std::vector<std::size_t> order;
  parallel_for(nullptr, 20, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(20);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ParallelFor, SerialBelowCutoffFansOutAtCutoff) {
  // The small-problem guard: one item below the cutoff the whole loop runs
  // on the calling thread; at the cutoff it fans out over the pool. The
  // decision is a pure function of count, so both observations are exact,
  // not flaky.
  ThreadPool pool(4);
  const auto distinct_threads = [&](std::size_t count) {
    std::mutex mu;
    std::set<std::thread::id> ids;
    parallel_for(&pool, count, [&](std::size_t) {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    return ids.size();
  };
  EXPECT_EQ(distinct_threads(kParallelForSerialCutoff - 1), 1u);
  EXPECT_GT(distinct_threads(kParallelForSerialCutoff), 1u);
}

TEST(ParallelFor, ForEachIgnoresTheCutoff) {
  // Callers that want the fan-out regardless of size use the pool directly.
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.for_each(kParallelForSerialCutoff / 2, [&](std::size_t) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GT(ids.size(), 1u);
}

// ---- Engine determinism across thread counts ----

void expect_identical(const RunResult& a, const RunResult& b,
                      const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.dispersed, b.dispersed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_moves, b.total_moves);
  EXPECT_EQ(a.max_memory_bits, b.max_memory_bits);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packet_bits_sent, b.packet_bits_sent);
  EXPECT_EQ(a.stalled_rounds, b.stalled_rounds);
  EXPECT_EQ(a.max_occupied, b.max_occupied);
  EXPECT_EQ(a.explored_nodes, b.explored_nodes);
  EXPECT_EQ(a.exploration_round, b.exploration_round);
  EXPECT_TRUE(a.final_config == b.final_config);
}

struct ModelRow {
  const char* label;
  CommModel comm;
  bool neighborhood;
  AlgorithmFactory factory;
};

RunResult run_row(const ModelRow& row, std::size_t threads) {
  const std::size_t n = 36, k = 24;
  RandomAdversary adv(n, n / 3, 7);
  EngineOptions opt;
  opt.comm = row.comm;
  opt.neighborhood_knowledge = row.neighborhood;
  opt.threads = threads;
  opt.max_rounds = 200;
  Engine engine(adv, placement::rooted(n, k), row.factory, opt);
  return engine.run();
}

TEST(ThreadDeterminism, AllTableOneModelRows) {
  // One algorithm per Table-I model row, each under its native model; the
  // memoized planner additionally exercises the PlanCache lanes from many
  // threads at once.
  const ModelRow rows[] = {
      {"global+nbhd (Algorithm 4, memoized)", CommModel::kGlobal, true,
       core::dispersion_factory_memoized()},
      {"global-only (blind walk)", CommModel::kGlobal, false,
       baselines::blind_walk_factory()},
      {"local-only (DFS dispersion)", CommModel::kLocal, false,
       baselines::dfs_dispersion_factory()},
      {"local+nbhd (greedy)", CommModel::kLocal, true,
       baselines::greedy_local_factory()},
  };
  for (const ModelRow& row : rows) {
    const RunResult serial = run_row(row, 1);
    expect_identical(serial, run_row(row, 2), row.label);
    expect_identical(serial, run_row(row, 8), row.label);
  }
}

TEST(ThreadDeterminism, StraddlesTheSerialCutoff) {
  // The engine's compute phase dispatches one work item per robot, so k
  // relative to kParallelForSerialCutoff decides whether a threaded run
  // actually fans out or silently takes the serial path. Pin bitwise
  // identity on BOTH sides of that edge: k just below the cutoff (serial
  // even with a pool) and k just above it (a real fan-out).
  auto run_sized = [](std::size_t k, std::size_t threads) {
    const std::size_t n = 2 * k;
    RandomAdversary adv(n, n / 3, 13);
    EngineOptions opt;
    opt.threads = threads;
    opt.max_rounds = 4 * k;
    Engine engine(adv, placement::rooted(n, k),
                  core::dispersion_factory_memoized(), opt);
    return engine.run();
  };
  for (const std::size_t k :
       {kParallelForSerialCutoff - 8, kParallelForSerialCutoff + 8}) {
    const RunResult serial = run_sized(k, 1);
    expect_identical(serial, run_sized(k, 4),
                     k < kParallelForSerialCutoff ? "below cutoff"
                                                  : "above cutoff");
  }
}

TEST(ThreadDeterminism, LocalDfsReadsExchangedStatesFromEveryLane) {
  // The DFS baseline decodes its co-located robots' start-of-round states
  // from the engine's state store. With k above the serial cutoff, rooted
  // robots read that store from several lanes at once while the store
  // holds the same bytes for all of them; no lane may see another round's.
  const std::size_t k = kParallelForSerialCutoff + 8;
  const std::size_t n = 3 * k / 2;
  auto run_dfs = [&](std::size_t threads) {
    RandomAdversary adv(n, n / 3, 17);
    EngineOptions opt;
    opt.comm = CommModel::kLocal;
    opt.neighborhood_knowledge = false;
    opt.threads = threads;
    opt.max_rounds = 60;
    Engine engine(adv, placement::rooted(n, k),
                  baselines::dfs_dispersion_factory(), opt);
    return engine.run();
  };
  const RunResult serial = run_dfs(1);
  EXPECT_GT(serial.total_moves, 0u);
  EXPECT_GT(serial.max_memory_bits, 0u);
  expect_identical(serial, run_dfs(2), "local DFS, 2 threads");
  expect_identical(serial, run_dfs(4), "local DFS, 4 threads");
}

TEST(ThreadDeterminism, ProbeDrivenTrapAdversary) {
  // The path trap dry-runs cloned robots against candidate graphs through
  // Engine::probe_plan, which shares the round's state snapshots and the
  // pool; its choices (and hence the whole run) must not depend on threads.
  auto run_trap = [](std::size_t threads) {
    const std::size_t n = 12, k = 6;
    PathTrapAdversary adv(n);
    EngineOptions opt;
    opt.comm = CommModel::kLocal;
    opt.neighborhood_knowledge = true;
    opt.threads = threads;
    opt.max_rounds = 120;
    Engine engine(adv, placement::figure1(n, k),
                  baselines::greedy_local_factory(), opt);
    return engine.run();
  };
  const RunResult serial = run_trap(1);
  EXPECT_FALSE(serial.dispersed);  // the trap must still work
  expect_identical(serial, run_trap(2), "path trap, 2 threads");
  expect_identical(serial, run_trap(8), "path trap, 8 threads");
}

// ---- Engine lanes ----

// Algorithm 4 against both probing trap adversaries, large enough that the
// compute phase fans out (k > kParallelForSerialCutoff): probes run on the
// calling lane, the round's lead step derives the plan, and the rest of the
// robots step across the lanes -- none of which may change the run.
TEST(EngineLanes, TrapRunsIdenticalAtOneAndTwoThreads) {
  const std::size_t k = kParallelForSerialCutoff + 8;
  const std::size_t n = 3 * k / 2;
  auto run = [&](bool clique, std::size_t threads) {
    std::unique_ptr<Adversary> adv;
    if (clique)
      adv = std::make_unique<CliqueTrapAdversary>(n);
    else
      adv = std::make_unique<PathTrapAdversary>(n);
    EngineOptions opt;
    opt.threads = threads;
    opt.max_rounds = 24;
    Engine engine(*adv, placement::rooted(n, k),
                  core::dispersion_factory_memoized(), opt);
    return engine.run();
  };
  for (const bool clique : {false, true}) {
    const RunResult serial = run(clique, 1);
    EXPECT_GT(serial.total_moves, 0u);
    expect_identical(serial, run(clique, 2),
                     clique ? "clique trap, 2 threads" : "path trap, 2 threads");
  }
}

// Robot 1 naps in every step; the others stay at once. Robot 1 is every
// round's lead, so its naps land in the engine's plan clock.
class NappingLeadRobot final : public RobotAlgorithm {
 public:
  static constexpr auto kNap = std::chrono::milliseconds(2);
  std::unique_ptr<RobotAlgorithm> clone() const override {
    return std::make_unique<NappingLeadRobot>(*this);
  }
  Port step(const RobotView& view) override {
    if (view.self == 1) std::this_thread::sleep_for(kNap);
    return kInvalidPort;
  }
  void serialize(BitWriter&) const override {}
  std::string name() const override { return "napping-lead"; }
  bool requires_global_comm() const override { return false; }
  bool requires_neighborhood() const override { return false; }
};

// phase_plan_ms is the engine's own lead-step clock, with no wall-clock
// ratio to go flaky on a loaded host: it holds every nap of the lead (a
// lower bound), and with phase_compute_ms it fits in the engine's own run
// (an upper bound), while an Algorithm 4 engine plans on another thread. A
// process-wide planner clock would hold none of the naps.
TEST(EngineLanes, PlanClockIsPerEngine) {
  std::atomic<bool> stop{false};
  double alg4_plan_ms = 0;
  std::thread planner([&] {
    do {
      constexpr std::size_t n = 600, k = 400;
      RandomAdversary adv(n, n / 3, 5);
      Rng rng(5);
      EngineOptions opt;
      opt.max_rounds = 60;
      Engine engine(adv, placement::uniform_random(n, k, rng),
                    core::dispersion_factory_memoized(), opt);
      alg4_plan_ms += engine.run().stats.phase_plan_ms;
    } while (!stop.load());
  });
  constexpr std::size_t n = 16, k = 8;
  constexpr Round kRounds = 12;
  Rng rng(9);
  StaticAdversary adv(builders::random_connected(n, n, rng));
  EngineOptions opt;
  opt.comm = CommModel::kLocal;
  opt.max_rounds = kRounds;
  Engine engine(adv, placement::rooted(n, k),
                [](RobotId, std::size_t) {
                  return std::make_unique<NappingLeadRobot>();
                },
                opt);
  const std::uint64_t t0 = phase_clock_ns();
  const RunResult r = engine.run();
  const double run_ms = phase_ns_to_ms(phase_clock_ns() - t0);
  stop = true;
  planner.join();
  EXPECT_GT(alg4_plan_ms, 0.0);
  ASSERT_EQ(r.rounds, kRounds);
  const double naps_ms =
      static_cast<double>(kRounds) *
      std::chrono::duration<double, std::milli>(NappingLeadRobot::kNap)
          .count();
  EXPECT_GE(r.stats.phase_plan_ms, naps_ms);
  EXPECT_LE(r.stats.phase_plan_ms + r.stats.phase_compute_ms, run_ms);
}

// ---- Single-assembly invariant ----

TEST(RoundPipeline, PacketsAssembledExactlyOncePerRound) {
  // The interval adversary never probes, so the only assemblies are the
  // per-round broadcasts. Every round's broadcast is produced exactly once,
  // by one of three routes: a full assembly, a republish of the previous
  // round's broadcast, or a delta reassembly. A T=5 window replays each
  // graph for four rounds, so the reuse routes fire alongside assemblies.
  const std::size_t n = 36, k = 24;
  TIntervalAdversary adv(std::make_unique<RandomAdversary>(n, n / 3, 7), 5);
  EngineOptions opt;
  opt.max_rounds = 200;
  Engine engine(adv, placement::rooted(n, k),
                core::dispersion_factory_memoized(), opt);
  const std::size_t before = packet_assembly_count();
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
  const std::size_t assemblies = packet_assembly_count() - before;
  EXPECT_GT(assemblies, 0u);
  EXPECT_GT(r.stats.broadcasts_reused + r.stats.broadcast_deltas, 0u);
  EXPECT_EQ(assemblies + r.stats.broadcasts_reused + r.stats.broadcast_deltas,
            r.rounds);
}

}  // namespace
}  // namespace dyndisp
