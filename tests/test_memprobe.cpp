// Tests for the heap-allocation probe (util/memprobe.h): the counter and
// AllocGuard mechanics, and -- the reason the probe exists -- the runtime
// twin of the hotpath-alloc lint rule: a warmed-up engine round under the
// retained arena/SoA/flat-packet layout performs ZERO heap allocations.
// The lint rule proves no allocating call is statically reachable from a
// DYNDISP_HOT root outside suppressed slow paths; this binary installs the
// operator-new hook and proves the slow paths actually stop firing once
// every retained buffer is warm.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/dispersion.h"
#include "core/planner.h"
#include "dynamic/path_trap_adversary.h"
#include "dynamic/random_adversary.h"
#include "dynamic/ring_adversary.h"
#include "dynamic/static_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "sim/round_context.h"
#include "sim/sensing.h"
#include "util/memprobe.h"

// This test binary measures real allocations: install the program-wide
// operator-new hook (exactly one TU per binary may do this).
DYNDISP_MEMPROBE_DEFINE_GLOBAL_NEW

namespace dyndisp {
namespace {

TEST(Memprobe, CounterIsMonotonic) {
  const std::uint64_t before = memprobe::allocation_count();
  memprobe::count_allocation();
  EXPECT_GE(memprobe::allocation_count(), before + 1);
}

TEST(Memprobe, HookFeedsCounter) {
  const std::uint64_t before = memprobe::allocation_count();
  std::vector<int> v(1024);
  std::iota(v.begin(), v.end(), 0);
  ASSERT_EQ(v[1023], 1023);
  EXPECT_GE(memprobe::allocation_count(), before + 1);
}

TEST(Memprobe, AllocGuardWindowsDeltas) {
  memprobe::AllocGuard outer;
  auto a = std::make_unique<int>(1);
  ASSERT_NE(a, nullptr);
  const std::uint64_t after_one = outer.delta();
  EXPECT_GE(after_one, 1u);

  memprobe::AllocGuard inner;
  EXPECT_EQ(inner.delta(), 0u);  // fresh window excludes prior allocations
  auto b = std::make_unique<int>(2);
  ASSERT_NE(b, nullptr);
  EXPECT_GE(inner.delta(), 1u);
  EXPECT_GE(outer.delta(), after_one + 1);
}

// The steady-state algorithm: every robot stays put forever, serializes no
// state, and declares no optional view field. This pins the engine's OWN
// per-round machinery -- index rebuild, broadcast reuse, view fill, plan
// buffer, state refresh -- with no algorithm-side allocations mixed in.
class StayRobot final : public RobotAlgorithm {
 public:
  std::unique_ptr<RobotAlgorithm> clone() const override {
    return std::make_unique<StayRobot>(*this);
  }
  Port step(const RobotView&) override { return kInvalidPort; }
  void serialize(BitWriter&) const override {}
  std::string name() const override { return "stay"; }
  bool requires_global_comm() const override { return false; }
  bool requires_neighborhood() const override { return false; }
  ViewNeeds view_needs() const override {
    ViewNeeds needs;
    needs.colocated = false;
    needs.colocated_states = false;
    needs.occupied_neighbors = false;
    needs.empty_ports = false;
    return needs;
  }
};

// The acceptance pin: at k = 10^4 on a static graph with the default
// engine (structure cache on) and one thread, every warmed-up round
// performs exactly zero heap allocations.
// The first rounds grow the retained buffers (index, arena, state table,
// plan buffer, the observers' start-of-round copy) and MUST allocate; the
// tail must be allocation-free. Rounds are windowed by an on_round
// observer that reads the counter into a pre-reserved buffer, so round r's
// count is everything between observer calls r - 1 and r, the observed
// round's own start-of-round copy included.
TEST(Memprobe, SteadyStateRoundsAreAllocationFree) {
  constexpr std::size_t kRobots = 10000;
  constexpr Round kRounds = 40;
  constexpr Round kWarmup = 10;

  StaticAdversary adv(builders::path(kRobots));
  EngineOptions opt;
  opt.max_rounds = kRounds;
  opt.threads = 1;
  std::vector<std::uint64_t> marks;  // allocation count after each round
  marks.reserve(kRounds);
  opt.on_round = [&marks](const RoundSnapshot&) {
    marks.push_back(memprobe::allocation_count());
  };
  Engine engine(
      adv, placement::rooted(kRobots, kRobots),
      [](RobotId, std::size_t) { return std::make_unique<StayRobot>(); },
      opt);

  const std::uint64_t start = memprobe::allocation_count();
  const RunResult res = engine.run();
  ASSERT_FALSE(res.dispersed);  // all robots stayed home
  ASSERT_EQ(marks.size(), static_cast<std::size_t>(kRounds));
  EXPECT_GT(marks.front(), start);  // the hook is really live
  for (Round r = kWarmup; r < kRounds; ++r) {
    EXPECT_EQ(marks[r] - marks[r - 1], 0u) << "allocation in round " << r;
  }
}

// A robot that stays put and counts its steps: its serialized state (ID and
// step count / 2) is non-empty and changes every other round, so the
// engine's end-of-round refresh really has new bytes to store. Given a log,
// it declares colocated_states and checks, every step, that each co-located
// robot's exchanged state is exactly the bytes that robot serialized at the
// start of the round.
class TickRobot final : public RobotAlgorithm {
 public:
  struct Log {
    std::size_t checked = 0;      ///< Exchanged states compared.
    std::size_t mismatches = 0;   ///< Exchanged bytes != expected bytes.
    /// Reused sink for the expected bytes, so a warmed-up check allocates
    /// nothing and the engine's allocations are all that is counted.
    BitWriter expected;
  };

  TickRobot(RobotId id, std::shared_ptr<Log> log) : id_(id), log_(std::move(log)) {}

  std::unique_ptr<RobotAlgorithm> clone() const override {
    return std::make_unique<TickRobot>(*this);
  }
  Port step(const RobotView& view) override {
    if (log_ != nullptr) check(view);
    ++steps_;
    return kInvalidPort;
  }
  void serialize(BitWriter& out) const override {
    out.write(id_, 16);
    out.write(steps_ / 2, 16);
  }
  std::string name() const override { return "tick"; }
  bool requires_global_comm() const override { return false; }
  bool requires_neighborhood() const override { return false; }
  ViewNeeds view_needs() const override {
    ViewNeeds needs;
    needs.colocated = log_ != nullptr;
    needs.colocated_states = log_ != nullptr;
    needs.occupied_neighbors = false;
    needs.empty_ports = false;
    return needs;
  }

 private:
  void check(const RobotView& view) {
    // Every robot has stepped exactly steps_ times before this round.
    for (std::size_t i = 0; i < view.colocated.size(); ++i) {
      TickRobot peer(view.colocated[i], nullptr);
      peer.steps_ = steps_;
      log_->expected.clear();
      peer.serialize(log_->expected);
      ++log_->checked;
      if (view.colocated_state(i) != log_->expected.bytes()) ++log_->mismatches;
    }
  }

  RobotId id_;
  // NOLINTNEXTLINE-dyndisp(metering-serialize-fields): shared test ledger
  // read back by assertions, not robot memory.
  std::shared_ptr<Log> log_;
  std::uint64_t steps_ = 0;
};

// The state store exists only for runs that exchange states: robots whose
// non-empty state changes every other round, but which declare
// colocated_states = false, make run() allocate no more than StayRobots
// (empty state) on the same instance -- the engine's own buffers and the
// graph's rows. Storing the states would cost at least one buffer per
// robot: 10,000 more allocations than the StayRobots here.
TEST(Memprobe, UnreadStatesAllocateNoHandles) {
  constexpr std::size_t kRobots = 10000;
  const auto run_allocs = [](const AlgorithmFactory& factory,
                             std::size_t& max_memory_bits) {
    StaticAdversary adv(builders::path(kRobots));
    EngineOptions opt;
    opt.max_rounds = 8;
    opt.threads = 1;
    Engine engine(adv, placement::rooted(kRobots, kRobots), factory, opt);
    memprobe::AllocGuard guard;
    const RunResult res = engine.run();
    const std::uint64_t allocs = guard.delta();
    EXPECT_FALSE(res.dispersed);
    max_memory_bits = res.max_memory_bits;
    return allocs;
  };
  std::size_t stay_bits = 0, tick_bits = 0;
  const std::uint64_t stay = run_allocs(
      [](RobotId, std::size_t) { return std::make_unique<StayRobot>(); },
      stay_bits);
  const std::uint64_t tick = run_allocs(
      [](RobotId id, std::size_t) {
        return std::make_unique<TickRobot>(id, nullptr);
      },
      tick_bits);
  EXPECT_EQ(stay_bits, 0u);
  EXPECT_EQ(tick_bits, 32u);  // the changing state is really metered
  RecordProperty("stay_allocs", std::to_string(stay));
  RecordProperty("tick_allocs", std::to_string(tick));
  // The state writer's buffer may grow once; nothing per robot.
  EXPECT_LE(tick, stay + 4) << tick << " allocations vs " << stay
                            << " for empty state";
}

// The twin: the same robots declaring colocated_states = true see, every
// round, each co-located robot's start-of-round bytes, and once the
// engine's per-robot state buffers are warm a round allocates nothing, even
// though every robot's state changes every other round: a changed state
// overwrites its robot's buffer in place.
TEST(Memprobe, ExchangedStatesAreExactAndWarmRoundsAllocateNothing) {
  constexpr std::size_t kRobots = 24;
  constexpr Round kRounds = 12;
  constexpr Round kWarmup = 3;
  auto log = std::make_shared<TickRobot::Log>();
  StaticAdversary adv(builders::path(kRobots));
  EngineOptions opt;
  opt.max_rounds = kRounds;
  opt.threads = 1;
  std::vector<std::uint64_t> marks;  // allocation count after each round
  marks.reserve(kRounds);
  opt.on_round = [&marks](const RoundSnapshot&) {
    marks.push_back(memprobe::allocation_count());
  };
  Engine engine(
      adv, placement::rooted(kRobots, kRobots),
      [log](RobotId id, std::size_t) {
        return std::make_unique<TickRobot>(id, log);
      },
      opt);
  const RunResult res = engine.run();
  ASSERT_FALSE(res.dispersed);
  EXPECT_EQ(log->checked, kRobots * kRobots * kRounds);
  EXPECT_EQ(log->mismatches, 0u);
  ASSERT_EQ(marks.size(), static_cast<std::size_t>(kRounds));
  for (Round r = kWarmup; r < kRounds; ++r) {
    EXPECT_EQ(marks[r] - marks[r - 1], 0u) << "allocation in round " << r;
  }
}

// The same pin under full churn: RandomAdversary regenerates a fresh
// connected graph every round into the engine's recycled Graph, and the
// engine validates it, checks its connectivity and rebuilds the broadcast.
// The round's graph has the same node and edge counts every round, so once
// the offset and half-edge arrays, the builder's scratch and the BFS
// scratch are warm, a round allocates nothing.
TEST(Memprobe, RegeneratedGraphRoundsAreAllocationFree) {
  constexpr std::size_t kRobots = 10000;
  constexpr Round kRounds = 30;
  constexpr Round kWarmup = 10;

  RandomAdversary adv(kRobots, kRobots / 3, 11);
  EngineOptions opt;
  opt.max_rounds = kRounds;
  opt.threads = 1;
  std::vector<std::uint64_t> marks;  // allocation count after each round
  marks.reserve(kRounds);
  std::size_t changed_rounds = 0;
  std::uint64_t last_fp = 0;
  opt.on_round = [&](const RoundSnapshot& snap) {
    marks.push_back(memprobe::allocation_count());
    changed_rounds += snap.graph.fingerprint() != last_fp;
    last_fp = snap.graph.fingerprint();
  };
  Engine engine(
      adv, placement::rooted(kRobots, kRobots),
      [](RobotId, std::size_t) { return std::make_unique<StayRobot>(); },
      opt);
  const RunResult res = engine.run();
  ASSERT_FALSE(res.dispersed);
  ASSERT_EQ(marks.size(), static_cast<std::size_t>(kRounds));
  EXPECT_EQ(changed_rounds, static_cast<std::size_t>(kRounds));
  for (Round r = kWarmup; r < kRounds; ++r) {
    EXPECT_EQ(marks[r] - marks[r - 1], 0u) << "allocation in round " << r;
  }
}

// Algorithm 4 itself under full churn: random placement, a fresh random
// graph every round, empty-port views. Views borrow their node's range of
// the round's empty-port lists, so a warm round allocates nothing per
// robot: only the plan its PlanCache miss publishes (the shared SlidePlan
// and its mover vector; see WarmPlanMissAllocatesAtMostThePlan). The
// retained buffers sized by the broadcast (the planner workspace's and the
// arena's) grow while the occupied set does -- every round until
// dispersion -- but geometrically, so by the end of warm-up none regrows
// here; regrowing each to its exact size read 21 allocations per round. A
// per-robot fill allocation reads hundreds.
TEST(Memprobe, WarmAlgorithmFourRoundsAllocateAtMostThePlan) {
  constexpr std::size_t kNodes = 6000;
  constexpr std::size_t kRobots = 4000;
  constexpr Round kWarmup = 5;
  constexpr std::uint64_t kPlanAllocs = 2;

  RandomAdversary adv(kNodes, kNodes / 3, 17);
  Rng rng(23);
  EngineOptions opt;
  opt.threads = 1;
  std::vector<std::uint64_t> marks;  // allocation count after each round
  marks.reserve(kRobots);
  opt.on_round = [&marks](const RoundSnapshot&) {
    marks.push_back(memprobe::allocation_count());
  };
  Engine engine(adv, placement::uniform_random(kNodes, kRobots, rng),
                core::dispersion_factory_memoized(), opt);
  const RunResult res = engine.run();
  ASSERT_TRUE(res.dispersed);
  ASSERT_GT(marks.size(), static_cast<std::size_t>(kWarmup) + 3);
  for (std::size_t r = kWarmup; r < marks.size(); ++r) {
    EXPECT_LE(marks[r] - marks[r - 1], kPlanAllocs)
        << "allocations in round " << r;
  }
}

// A broadcast that gains one packet per round -- a rooted start whose robots
// leave the root one per round along a path -- regrows the context's
// retained buffers (the node index's sender list and the arena's header,
// neighbor and ID arrays) geometrically, so 200 growing rounds allocate
// O(log 200) times per buffer. A buffer cleared before it is refilled
// regrows to its exact size, once per round.
TEST(Memprobe, GrowingBroadcastAllocatesLogarithmically) {
  constexpr std::size_t kRounds = 200;
  constexpr std::size_t kNodes = kRounds + 1;
  // The four growing buffers double at most bit_width(kNodes) times each;
  // twice that leaves room for the first round's fixed-size buffers and
  // still sits far below one allocation per round.
  constexpr std::uint64_t kCeiling = 2 * 4 * std::bit_width(kNodes);

  Configuration conf = placement::rooted(kNodes, kNodes);
  const Graph g = builders::path(kNodes);
  RoundContext ctx;
  std::uint64_t allocs = 0;
  for (std::size_t r = 1; r <= kRounds; ++r) {
    conf.set_position(static_cast<RobotId>(r + 1), static_cast<NodeId>(r));
    const memprobe::AllocGuard guard;
    ctx.begin_round(conf);
    ctx.publish_packets(g, conf, true, nullptr, nullptr);
    allocs += guard.delta();
    ASSERT_EQ(ctx.packet_count(), r + 1);
  }
  RecordProperty("allocs", std::to_string(allocs));
  EXPECT_LE(allocs, kCeiling) << allocs << " allocations over " << kRounds
                              << " rounds of a growing broadcast";
}

// The port-relabeling static adversary keeps its relabeling staging, so a
// warm emission (relabel, then copy into the recycled output graph)
// allocates nothing.
TEST(Memprobe, StaticReshuffleEmitsWithoutAllocating) {
  constexpr std::size_t kNodes = 1000;
  StaticAdversary adv(builders::path(kNodes), /*reshuffle_ports=*/true, 3);
  const Configuration conf = placement::rooted(kNodes, 10);
  Graph out;
  adv.next_graph_into(0, conf, out);
  adv.next_graph_into(1, conf, out);
  memprobe::AllocGuard guard;
  for (Round r = 2; r < 12; ++r) adv.next_graph_into(r, conf, out);
  EXPECT_EQ(guard.delta(), 0u);
}

// Adversary-side twin of the steady-state pin: every ring strategy refills
// a warmed-up Graph in place. One warm-up emission sizes the rows; the next
// 100 emissions over changing configurations (cuts move, the worst-edge
// scorer rescans) allocate nothing.
TEST(Memprobe, RingAdversaryEmitsWithoutAllocating) {
  constexpr std::size_t kNodes = 96;
  std::vector<Configuration> confs;
  Rng rng(5);
  for (std::size_t i = 0; i < 8; ++i)
    confs.push_back(placement::uniform_random(kNodes, 16 + 8 * i, rng));
  confs.push_back(placement::rooted(kNodes, 64, 95));
  confs.push_back(placement::rooted(kNodes, kNodes));
  for (const auto strategy : {RingAdversary::Strategy::kRandomEdge,
                              RingAdversary::Strategy::kWorstEdge,
                              RingAdversary::Strategy::kFixedRing}) {
    RingAdversary adv(kNodes, strategy, 9);
    Graph out;
    adv.next_graph_into(0, confs.front(), out);
    memprobe::AllocGuard guard;
    for (Round r = 1; r <= 100; ++r)
      adv.next_graph_into(r, confs[r % confs.size()], out);
    EXPECT_EQ(guard.delta(), 0u) << adv.name();
  }
}

// The planner-side twin of the steady-state pin: a PlanCache miss plans in
// the cache's retained workspace, so once the workspace has planned a set
// at least as large as the next one (as many senders, robots and neighbor
// entries), a miss allocates only the plan it publishes -- the shared
// SlidePlan and its mover vector. The warm-up round puts every one of the
// k robots on its own node of a denser graph, which bounds all 20 random
// rounds that follow.
TEST(Memprobe, WarmPlanMissAllocatesAtMostThePlan) {
  constexpr std::size_t kRobots = 2000;
  constexpr std::size_t kNodes = 3000;
  constexpr std::size_t kMisses = 20;
  Rng rng(26);
  const PacketSet warmup(make_all_packets(
      builders::random_connected(kRobots, 4 * kRobots, rng),
      placement::grouped(kRobots, kRobots, kRobots, rng), true));
  std::vector<PacketSet> rounds;
  for (std::size_t i = 0; i < kMisses; ++i) {
    rounds.emplace_back(make_all_packets(
        builders::random_connected(kNodes, kNodes / 3, rng),
        placement::uniform_random(kNodes, kRobots, rng), true));
  }

  core::PlanCache cache;
  cache.get(warmup);
  std::size_t movers = 0;
  for (std::size_t i = 0; i < kMisses; ++i) {
    memprobe::AllocGuard guard;
    movers += cache.get(rounds[i]).movers.size();
    EXPECT_LE(guard.delta(), 2u) << "miss " << i;
  }
  EXPECT_EQ(cache.misses(), kMisses + 1);  // every set is distinct
  EXPECT_GT(movers, 0u);                   // the rounds really plan
}

/// The path-trap adversary with every plan probe run twice on the same
/// candidate, from round `warmup` on. The repeat's broadcast equals the
/// first's, so the PlanCache serves its plan without a derivation: its
/// allocations are the probe path's own (robot copies, views, broadcast
/// assembly, the returned plan).
class RepeatProbeTrap final : public Adversary {
 public:
  RepeatProbeTrap(std::size_t n, Round warmup) : inner_(n), warmup_(warmup) {}
  std::string name() const override { return inner_.name(); }
  std::size_t node_count() const override { return inner_.node_count(); }
  bool wants_plan_probe() const override { return true; }
  void next_graph_into(Round r, const Configuration& conf,
                       Graph& out) override {
    counting_ = r >= warmup_;
    inner_.next_graph_into(r, conf, out);
  }
  void set_plan_probe(PlanProbe probe) override {
    inner_.set_plan_probe([this, probe = std::move(probe)](const Graph& g) {
      MovePlan plan = probe(g);
      if (!counting_) return plan;
      memprobe::AllocGuard guard;
      const MovePlan repeat = probe(g);
      repeat_allocations += guard.delta();
      ++probes;
      if (repeat != plan) ++mismatches;
      return plan;
    });
  }

  std::uint64_t repeat_allocations = 0;
  std::uint64_t probes = 0;
  std::uint64_t mismatches = 0;

 private:
  PathTrapAdversary inner_;
  Round warmup_;
  bool counting_ = false;
};

// The probe-path twin of the pins above: a warmed-up plan probe refills a
// retained robot arena through copy_into instead of cloning every robot, so
// with Algorithm 4 at k = 32 under the path trap it makes about one
// allocation of its own (the move plan it returns; measured 1.07 per
// probe). A reintroduced per-probe clone() alone costs k. (The repeat probe
// keeps the plan derivation out of the count;
// Memprobe.WarmPlanMissAllocatesAtMostThePlan pins that part.)
TEST(Memprobe, TrapProbeReusesRobots) {
  constexpr std::size_t kRobots = 32;
  constexpr std::size_t kNodes = 48;
  constexpr Round kWarmup = 2;
  RepeatProbeTrap adv(kNodes, kWarmup);
  EngineOptions opt;
  opt.max_rounds = 24;
  opt.threads = 1;
  Engine engine(adv, placement::rooted(kNodes, kRobots, 0),
                core::dispersion_factory_memoized(), opt);
  const RunResult res = engine.run();
  ASSERT_GT(res.rounds, kWarmup);
  ASSERT_GT(adv.probes, res.rounds - kWarmup);  // several probes per round
  EXPECT_EQ(adv.mismatches, 0u);
  const double per_probe = static_cast<double>(adv.repeat_allocations) /
                           static_cast<double>(adv.probes);
  RecordProperty("allocs_per_probe", std::to_string(per_probe));
  EXPECT_LT(per_probe, 2.0)
      << adv.repeat_allocations << " allocations over " << adv.probes
      << " probes";
}

}  // namespace
}  // namespace dyndisp
