// Additional coverage: the node -> robots index, packet equality, trap
// adversaries from arbitrary starting configurations, degenerate adversary
// cases, and engine/metric interactions not covered elsewhere.
#include <gtest/gtest.h>

#include <map>

#include "baselines/greedy_local.h"
#include "core/dispersion.h"
#include "dynamic/clique_trap_adversary.h"
#include "dynamic/path_trap_adversary.h"
#include "dynamic/ring_adversary.h"
#include "dynamic/star_star_adversary.h"
#include "dynamic/static_adversary.h"
#include "dynamic/random_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "sim/sensing.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

// ---- NodeIndex ----

TEST(NodeIndex, MatchesRobotsAt) {
  Rng rng(17);
  NodeIndex index;  // rebuilt in place across trials of different sizes
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + rng.below(15);
    const std::size_t k = 1 + rng.below(n);
    Configuration conf = placement::uniform_random(n, k, rng);
    if (k > 2) conf.kill(static_cast<RobotId>(1 + rng.below(k)));
    index.build(conf);
    ASSERT_EQ(index.node_count(), n);
    EXPECT_EQ(index.total(), conf.alive_count());
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(std::vector<RobotId>(index.begin(v), index.end(v)),
                conf.robots_at(v));
      EXPECT_EQ(index.count(v), conf.count_at(v));
    }
  }
}

TEST(NodeIndex, PacketAssemblyIdenticalWithAndWithoutIndex) {
  // make_all_packets builds its own index; the arena assembly reads a
  // caller-held one, refilled in place across trials as the engine does.
  Rng rng(23);
  NodeIndex index;
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 4 + rng.below(12);
    const std::size_t k = 2 + rng.below(n - 1);
    const Graph g = builders::random_connected(n, rng.below(n), rng);
    const Configuration conf = placement::uniform_random(n, k, rng);
    index.build(conf);
    for (const bool neighborhood : {true, false}) {
      auto arena = std::make_shared<PacketArena>();
      assemble_arena_metered(*arena, g, conf, neighborhood, index, nullptr);
      EXPECT_TRUE(PacketSet(make_all_packets(g, conf, neighborhood)) ==
                  PacketSet(std::move(arena)));
    }
  }
}

TEST(InfoPacketEquality, DistinguishesEveryField) {
  InfoPacket a;
  a.sender = 1;
  a.count = 2;
  a.degree = 3;
  a.robots = {1, 4};
  a.occupied_neighbors = {{2, 5, 1, {5}}};
  InfoPacket b = a;
  EXPECT_EQ(a, b);
  b.degree = 4;
  EXPECT_NE(a, b);
  b = a;
  b.occupied_neighbors[0].port = 1;
  EXPECT_NE(a, b);
}

// ---- traps from arbitrary starting configurations ----

TEST(PathTrap, ContainsGreedyFromArbitraryStarts) {
  // The theorem's adversary herds ANY configuration into the Fig. 1 shape;
  // the implementation rebuilds the trap from whatever the robots did, so
  // containment must not depend on starting from the canonical picture.
  const std::size_t n = 13, k = 7;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    PathTrapAdversary adv(n);
    Rng rng(seed);
    EngineOptions opt;
    opt.comm = CommModel::kLocal;
    opt.neighborhood_knowledge = true;
    opt.allow_model_mismatch = true;
    opt.max_rounds = 60 * k;
    // Arbitrary shapes with at least one multiplicity (an already-dispersed
    // Conf_0 needs no solving and is outside the theorem's scope).
    const std::size_t groups = 2 + seed % (k - 2);
    Engine engine(adv, placement::grouped(n, k, groups, rng),
                  baselines::greedy_local_factory(), opt);
    const RunResult r = engine.run();
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_FALSE(r.dispersed);
    EXPECT_LT(r.max_occupied, k);
  }
}

TEST(CliqueTrap, DegenerateRoundsCountedWhenAlphaTooSmall) {
  // With alpha < 3 occupied nodes the clique construction is impossible;
  // the adversary must fall back gracefully and count the round.
  const std::size_t n = 8;
  CliqueTrapAdversary adv(n);
  const Configuration rooted = placement::rooted(n, 4);  // alpha = 1
  const Graph g = adv.next_graph(0, rooted);
  EXPECT_TRUE(g.validate().empty());
  EXPECT_EQ(adv.degenerate_rounds(), 1u);
}

TEST(StarStar, NameAndDegenerateEmptySide) {
  StarStarAdversary adv(5);
  EXPECT_EQ(adv.name(), "star-star-lower-bound");
  // k = n: no empty nodes; the adversary must still emit a connected graph.
  Configuration full(5, {0, 1, 2, 3, 4});
  EXPECT_TRUE(adv.next_graph(0, full).validate().empty());
}

TEST(RingAdversary, MinimumRingSize) {
  RingAdversary adv(3, RingAdversary::Strategy::kRandomEdge, 1);
  const Configuration conf = placement::rooted(3, 2);
  for (Round r = 0; r < 10; ++r) {
    const Graph g = adv.next_graph(r, conf);
    EXPECT_TRUE(g.validate().empty());
    EXPECT_GE(g.edge_count(), 2u);
  }
}

// ---- engine details ----

TEST(Engine, PacketBitsZeroUnderLocalComm) {
  StaticAdversary adv(builders::star(6));
  EngineOptions opt;
  opt.comm = CommModel::kLocal;
  opt.neighborhood_knowledge = true;
  opt.max_rounds = 50;
  opt.allow_model_mismatch = true;
  Engine engine(adv, placement::rooted(6, 4),
                baselines::greedy_local_factory(), opt);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
  EXPECT_EQ(r.packets_sent, 0u);
  EXPECT_EQ(r.packet_bits_sent, 0u);
}

TEST(Engine, StarStarPacketBitsGrowQuadraticallyInK) {
  // Under star-star the component is one big star: each packet lists up to
  // alpha neighbors, so per-round volume is Theta(k^2) bits near the end.
  auto run_k = [](std::size_t k) {
    const std::size_t n = k + 4;
    StarStarAdversary adv(n);
    EngineOptions opt;
    opt.max_rounds = 10 * k;
    Engine engine(adv, placement::rooted(n, k), core::dispersion_factory(),
                  opt);
    return engine.run().packet_bits_sent;
  };
  const std::size_t b8 = run_k(8), b16 = run_k(16);
  EXPECT_GT(b16, 4 * b8);  // super-linear growth in k
}

TEST(Engine, ValidatorOptionCatchesBadAdversary) {
  // An adversary emitting a disconnected graph must be rejected: the
  // engine validates every round graph.
  class BadAdversary final : public Adversary {
   public:
    std::string name() const override { return "bad"; }
    std::size_t node_count() const override { return 4; }
    void next_graph_into(Round, const Configuration&, Graph& out) override {
      out = Graph(4);
      out.add_edge(0, 1);  // nodes 2, 3 disconnected
    }
  };
  BadAdversary adv;
  EngineOptions opt;
  Engine engine(adv, placement::rooted(4, 2), core::dispersion_factory(),
                opt);
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Dispersion, AtMostOneRobotPerEdgePerRound) {
  // Section II: "Any number of robots are allowed to move along an edge at
  // any round although limiting it to one is sufficient in our algorithm."
  // Verify the sufficiency claim: under Algorithm 4 (fault-free,
  // synchronous) no edge ever carries two robots in the same round --
  // sliding paths are node-disjoint and exits to empty nodes leave from
  // distinct endpoints.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::size_t n = 16, k = 12;
    RandomAdversary adv(n, 6, seed);
    Rng rng(seed);
    EngineOptions opt;
    opt.max_rounds = 10 * k;
    Trace trace;
    opt.on_round = record_into(trace);
    Engine engine(adv, placement::grouped(n, k, 3, rng),
                  core::dispersion_factory(), opt);
    const RunResult r = engine.run();
    ASSERT_TRUE(r.dispersed);
    for (const auto& rec : trace.records()) {
      std::map<std::pair<NodeId, NodeId>, int> edge_use;
      for (RobotId id = 1; id <= k; ++id) {
        if (rec.moves[id - 1] == kInvalidPort) continue;
        const NodeId from = rec.before.position(id);
        const NodeId to = rec.after.position(id);
        ++edge_use[{std::min(from, to), std::max(from, to)}];
      }
      for (const auto& [edge, uses] : edge_use) {
        EXPECT_EQ(uses, 1) << "edge {" << edge.first << "," << edge.second
                           << "} carried " << uses << " robots in round "
                           << rec.round;
      }
    }
  }
}

TEST(Dispersion, ScaleSmokeK96) {
  RandomAdversary adv(144, 48, 3);
  EngineOptions opt;
  opt.max_rounds = 960;
  opt.record_progress = true;
  Engine engine(adv, placement::rooted(144, 96),
                core::dispersion_factory_memoized(), opt);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
  EXPECT_LE(r.rounds, 96u);
  EXPECT_EQ(r.stalled_rounds, 0u);
}

}  // namespace
}  // namespace dyndisp
