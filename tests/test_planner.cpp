// Tests for the per-round sliding plan (Algorithm 4's compute phase) and
// the plan cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "core/planner.h"
#include "graph/builders.h"
#include "robots/configuration.h"
#include "robots/placement.h"
#include "sim/sensing.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

using core::MoveDirective;
using core::MoverMap;
using core::plan_round;
using core::PlanCache;
using core::PlannerConfig;
using core::PlanWorkspace;
using core::SlidePlan;

// The worked example of test_core_structures.cpp.
struct Worked {
  Graph g = Graph::from_edges(
      8, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}});
  Configuration conf{8, {0, 1, 2, 0, 5, 5, 6}};
  std::vector<InfoPacket> packets = make_all_packets(g, conf, true);
};

TEST(Planner, WorkedExampleExactPlan) {
  Worked w;
  const SlidePlan plan = plan_round(w.packets);
  // Component A: path 1->2->3 slides robots 4 (from root via port 1),
  // 2 (interior via port 2), 3 (leaf exits to an empty neighbor).
  // Component B: root's trivial path sends robot 6 to an empty neighbor.
  ASSERT_EQ(plan.movers.size(), 4u);
  EXPECT_EQ(plan.movers.at(4), (MoveDirective{1, false}));
  EXPECT_EQ(plan.movers.at(2), (MoveDirective{2, false}));
  EXPECT_EQ(plan.movers.at(3), (MoveDirective{kInvalidPort, true}));
  EXPECT_EQ(plan.movers.at(6), (MoveDirective{kInvalidPort, true}));
  EXPECT_FALSE(plan.movers.count(1));  // settled smallest IDs stay
  EXPECT_FALSE(plan.movers.count(5));
  EXPECT_FALSE(plan.movers.count(7));
}

TEST(Planner, DispersedRoundPlansNothing) {
  const Graph g = builders::cycle(5);
  const Configuration conf(5, {0, 2, 4});
  const SlidePlan plan = plan_round(make_all_packets(g, conf, true));
  EXPECT_TRUE(plan.movers.empty());
}

TEST(Planner, RootedConfigurationUsesTrivialPath) {
  const Graph g = builders::star(6);
  const Configuration conf = placement::rooted(6, 4, 0);
  const SlidePlan plan = plan_round(make_all_packets(g, conf, true));
  // Single component, single node: exactly one robot exits per round.
  ASSERT_EQ(plan.movers.size(), 1u);
  const auto& [mover, directive] = *plan.movers.begin();
  EXPECT_EQ(mover, 2u);  // robots at the root are {1,2,3,4}; robot 2 moves
  EXPECT_TRUE(directive.exit_via_smallest_empty);
}

TEST(Planner, TrimsToRootCount) {
  // Root with 2 robots adjacent to many singleton leaves bordering empty
  // nodes: only count(root)-1 = 1 path may be served.
  //   star: center 0 with leaves 1..4; extra empty nodes 5..8 hang off the
  //   leaves so the leaves (not the center) border empty nodes.
  Graph g(9);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(0, 4);
  g.add_edge(1, 5);
  g.add_edge(2, 6);
  g.add_edge(3, 7);
  g.add_edge(4, 8);
  const Configuration conf(9, {0, 0, 1, 2, 3, 4});
  const SlidePlan plan = plan_round(make_all_packets(g, conf, true));
  // One path kept (to the smallest-name leaf, robot 3 on node 1):
  // movers = robot 2 from the root + robot 3 exiting to empty node 5.
  ASSERT_EQ(plan.movers.size(), 2u);
  EXPECT_EQ(plan.movers.at(2).port, g.port_to(0, 1));
  EXPECT_TRUE(plan.movers.at(3).exit_via_smallest_empty);
}

TEST(Planner, ServesMultiplePathsWhenRootHasRobots) {
  // Same topology but 4 robots on the root: 3 paths can be served.
  Graph g(9);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(0, 4);
  g.add_edge(1, 5);
  g.add_edge(2, 6);
  g.add_edge(3, 7);
  g.add_edge(4, 8);
  const Configuration conf(9, {0, 0, 0, 0, 1, 2, 3, 4});
  const SlidePlan plan = plan_round(make_all_packets(g, conf, true));
  // Paths to leaves named 5,6,7 kept (3 = count(root)-1), each with a root
  // mover and a leaf mover; the path to leaf 8 is trimmed.
  EXPECT_EQ(plan.movers.size(), 6u);
  EXPECT_TRUE(plan.movers.count(2));
  EXPECT_TRUE(plan.movers.count(3));
  EXPECT_TRUE(plan.movers.count(4));
  EXPECT_TRUE(plan.movers.at(5).exit_via_smallest_empty);
  EXPECT_TRUE(plan.movers.at(6).exit_via_smallest_empty);
  EXPECT_TRUE(plan.movers.at(7).exit_via_smallest_empty);
  EXPECT_FALSE(plan.movers.count(8));
}

TEST(Planner, MultiplicityOffRootStillSlides) {
  // Multiplicity at a non-root... the smallest-name multiplicity node IS
  // the root by definition; verify a second multiplicity node (larger name)
  // is left for later rounds while the root's path slides.
  const Graph g = builders::path(7);
  const Configuration conf(7, {1, 1, 3, 3, 2});  // mults on nodes 1 and 3
  const SlidePlan plan = plan_round(make_all_packets(g, conf, true));
  // Component spans nodes 1..3 (names 1, 5, 3). Root = name 1 (node 1).
  // Node 1 borders empty node 0: the root path is trivial.
  ASSERT_GE(plan.movers.size(), 1u);
  EXPECT_TRUE(plan.movers.count(2));
  EXPECT_TRUE(plan.movers.at(2).exit_via_smallest_empty);
}

TEST(Planner, IdenticalAcrossRobotsAndCache) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 4 + rng.below(16);
    const std::size_t k = 2 + rng.below(n - 1);
    const Graph g = builders::random_connected(n, rng.below(n), rng);
    const Configuration conf = placement::uniform_random(n, k, rng);
    const auto packets = make_all_packets(g, conf, true);

    const SlidePlan direct = plan_round(packets);
    PlanCache cache;
    EXPECT_TRUE(cache.get(packets) == direct);
    EXPECT_TRUE(cache.get(packets) == direct);  // hit path
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
  }
}

TEST(PlanCache, InvalidatesOnDifferentPackets) {
  const Graph g = builders::path(4);
  const Configuration c1(4, {0, 0});       // trivial-path plan: robot 2 exits
  const Configuration c2(4, {0, 0, 1});    // sliding plan with a port move
  PlanCache cache;
  const SlidePlan p1 = cache.get(make_all_packets(g, c1, true));
  const SlidePlan p2 = cache.get(make_all_packets(g, c2, true));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_FALSE(p1 == p2);  // different movers (different sliding ports)
}

// A content-equal set in fresh storage hits, and the slot re-keys to it:
// it stops pinning the first set's arena, which dies with its last outside
// handle.
TEST(PlanCache, ContentHitRekeysToNewStorage) {
  const Worked w;
  PlanCache cache;
  PacketSet first(w.packets);
  const std::weak_ptr<const PacketArena> first_arena = first.arena_handle();
  const SlidePlan planned = cache.get(first);
  ASSERT_EQ(cache.misses(), 1u);

  const PacketSet second(w.packets);
  ASSERT_NE(second.identity(), first.identity());
  EXPECT_TRUE(cache.get(second) == planned);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  first.reset();
  EXPECT_TRUE(first_arena.expired());
  EXPECT_TRUE(cache.get(second) == planned);  // identity hit on the new key
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

// Lanes hitting one set count every hit exactly, with no shared write per
// hit: each thread's tally lives on its own lane and is folded on read.
TEST(PlanCache, ConcurrentIdentityHitsAreExact) {
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kGets = 2000;
  const Worked w;
  const PacketSet set(w.packets);
  PlanCache cache;
  const SlidePlan expected = cache.get(set);  // the one miss
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> lanes;
  for (std::size_t t = 0; t < kLanes; ++t) {
    lanes.emplace_back([&] {
      for (std::size_t j = 0; j < kGets; ++j)
        if (!(cache.get(set) == expected)) ++mismatches;
    });
  }
  for (std::thread& lane : lanes) lane.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(cache.hits(), kLanes * kGets);
  EXPECT_EQ(cache.misses(), 1u);
}

// Lanes that alternate two sets keep missing on each other's writes; every
// plan a lane gets back must still be its own set's, alive while it reads.
TEST(PlanCache, ConcurrentMixedSetsReturnTheirOwnPlans) {
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kGets = 300;
  Rng rng(27);
  std::vector<PacketSet> sets;
  std::vector<SlidePlan> expected;
  for (int i = 0; i < 2; ++i) {
    const Graph g = builders::random_connected(60, 40, rng);
    sets.emplace_back(
        make_all_packets(g, placement::uniform_random(60, 40, rng), true));
    expected.push_back(plan_round(sets.back()));
  }
  ASSERT_FALSE(expected[0] == expected[1]);
  PlanCache cache;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> lanes;
  for (std::size_t t = 0; t < kLanes; ++t) {
    lanes.emplace_back([&, t] {
      for (std::size_t j = 0; j < kGets; ++j) {
        const std::size_t which = (t + j) % 2;
        if (!(cache.get(sets[which]) == expected[which])) ++mismatches;
      }
    });
  }
  for (std::thread& lane : lanes) lane.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), kLanes * kGets);
}

// Property sweep: the plan always respects the paper's structural rules.
class PlannerSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerSweep, PlanIsWellFormed) {
  Rng rng(GetParam() * 1337);
  const std::size_t n = 3 + rng.below(24);
  const std::size_t k = 2 + rng.below(n - 1);
  const Graph g = builders::random_connected(n, rng.below(2 * n), rng);
  const Configuration conf = placement::uniform_random(n, k, rng);
  const auto packets = make_all_packets(g, conf, true);
  const SlidePlan plan = plan_round(packets);
  const auto occ = conf.occupancy();

  if (conf.is_dispersed()) {
    EXPECT_TRUE(plan.movers.empty());
    return;
  }
  // At least one mover whenever a multiplicity exists (Lemma 3).
  EXPECT_GE(plan.movers.size(), 1u);

  for (const auto& [mover, directive] : plan.movers) {
    const NodeId pos = conf.position(mover);
    // On multi-robot nodes the smallest robot stays settled. (A singleton
    // interior path node's only robot does move -- the path shifts and the
    // predecessor refills the node.)
    if (conf.robots_at(pos).size() >= 2) {
      EXPECT_NE(conf.robots_at(pos).front(), mover);
    }
    if (directive.exit_via_smallest_empty) {
      // The node must actually border an empty node (Lemma 5).
      bool has_empty = false;
      for (const HalfEdge& he : g.incident(pos)) has_empty |= occ[he.to] == 0;
      EXPECT_TRUE(has_empty);
    } else {
      // Sliding along an occupied tree edge.
      ASSERT_GE(directive.port, 1u);
      ASSERT_LE(directive.port, g.degree(pos));
      EXPECT_GT(occ[g.neighbor(pos, directive.port)], 0u);
    }
  }

  // Applying the plan occupies at least one previously-empty node and
  // leaves every previously-occupied node occupied (Lemmas 6/7).
  Configuration next = conf;
  for (const auto& [mover, directive] : plan.movers) {
    const NodeId pos = conf.position(mover);
    Port port = directive.port;
    if (directive.exit_via_smallest_empty) {
      for (Port p = 1; p <= g.degree(pos); ++p) {
        if (occ[g.neighbor(pos, p)] == 0) {
          port = p;
          break;
        }
      }
    }
    ASSERT_NE(port, kInvalidPort);
    next.set_position(mover, g.neighbor(pos, port));
  }
  const auto occ_next = next.occupancy();
  for (NodeId v = 0; v < n; ++v) {
    if (occ[v] > 0) {
      EXPECT_GT(occ_next[v], 0u) << "node " << v << " vacated";
    }
  }
  EXPECT_GE(next.occupied_count(), conf.occupied_count() + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerSweep,
                         ::testing::Range<std::uint64_t>(1, 61));

// ---- Retained workspace: nothing leaks from one plan into the next ----

/// Packet set `step` of the stale-state sweep. Sizes are log-uniform over
/// k in [1, 2000], with both ends forced every ten sets, so consecutive
/// sets shrink and grow; every third set is one giant component (nearly
/// every node of a dense graph occupied), the others are fragments on a
/// sparse graph four times larger. Every fourth set is then degraded by
/// hand: unsorted (packets and neighbor lists shuffled), a duplicated
/// sender, or Byzantine-tampered with a phantom neighbor.
std::vector<InfoPacket> stale_state_packets(std::size_t step, Rng& rng) {
  constexpr std::size_t kMaxRobots = 2000;
  std::size_t k = static_cast<std::size_t>(
      std::lround(std::exp(rng.uniform01() * std::log(double{kMaxRobots}))));
  if (step % 10 == 0) k = kMaxRobots;
  if (step % 10 == 5) k = 1;
  k = std::clamp<std::size_t>(k, 1, kMaxRobots);

  const bool giant = step % 3 == 0;
  const std::size_t n = giant ? k + k / 8 + 1 : 4 * k + 2;
  const Graph g = builders::random_connected(n, giant ? 2 * n : n / 8, rng);
  const Configuration conf =
      rng.chance(0.5) ? placement::uniform_random(n, k, rng)
                      : placement::grouped(n, k, 1 + rng.below(k), rng);
  std::vector<InfoPacket> packets = make_all_packets(g, conf, true);
  if (step % 4 != 3) return packets;

  switch ((step / 4) % 3) {
    case 0:  // unsorted: packets and neighbor lists out of order
      rng.shuffle(packets);
      for (InfoPacket& pkt : packets) rng.shuffle(pkt.occupied_neighbors);
      break;
    case 1:  // a sender broadcasting twice
      packets.push_back(InfoPacket(packets[rng.below(packets.size())]));
      rng.shuffle(packets);
      break;
    default:  // liars, and a neighbor no packet answers for
      for (InfoPacket& pkt : packets) {
        if (!rng.chance(0.2)) continue;
        if (rng.chance(0.5)) {  // "I am alone here."
          pkt.count = 1;
          pkt.robots.resize(1);
        } else {  // "All my neighbors are occupied."
          pkt.degree = pkt.occupied_neighbors.size();
        }
      }
      InfoPacket& liar = packets[rng.below(packets.size())];
      NeighborInfo phantom;
      phantom.port = static_cast<Port>(liar.degree + 1);
      phantom.min_robot = static_cast<RobotId>(k + 1 + rng.below(8));
      phantom.count = 1;
      phantom.robots = {phantom.min_robot};
      liar.occupied_neighbors.push_back(phantom);
      ++liar.degree;
      break;
  }
  return packets;
}

// One warm workspace planned across 300 consecutive packet sets, under both
// tree builders and three path caps, must agree with a fresh workspace on
// every plan: a scratch buffer that is not refilled (a visited flag, a rank,
// a walk state, a tree child range) shows up as a differing plan.
TEST(PlanWorkspace, ReusedWorkspaceMatchesFreshPlans) {
  Rng rng(2026);
  PlanWorkspace warm;
  std::size_t movers = 0;
  for (std::size_t step = 0; step < 300; ++step) {
    const PacketSet packets(stale_state_packets(step, rng));
    for (const PlannerConfig::Tree tree :
         {PlannerConfig::Tree::kDfs, PlannerConfig::Tree::kBfs}) {
      for (const std::size_t max_paths : {0u, 1u, 3u}) {
        PlannerConfig config;
        config.tree = tree;
        config.max_paths = max_paths;
        const MoverMap fresh = PlanWorkspace().plan_round(packets, config);
        ASSERT_TRUE(warm.plan_round(packets, config) == fresh)
            << "set " << step << " (" << packets.size() << " senders), "
            << (tree == PlannerConfig::Tree::kBfs ? "bfs" : "dfs")
            << ", max_paths " << max_paths;
        movers += fresh.size();
      }
    }
  }
  EXPECT_GT(movers, 0u);
}

}  // namespace
}  // namespace dyndisp
