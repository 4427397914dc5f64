// Tests for the auxiliary surfaces: the CLI flag parser, JSON trace export,
// the dynamic-ring adversary (the related-work setting), and the analysis
// checkers' failure paths.
#include <gtest/gtest.h>

#include "analysis/verify.h"
#include "core/dispersion.h"
#include "dynamic/ring_adversary.h"
#include "dynamic/static_adversary.h"
#include "dynamic/validator.h"
#include "graph/algorithms.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "util/cli.h"

namespace dyndisp {
namespace {

// ---- CLI ----

CliArgs parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), argv.begin(), argv.end());
  return CliArgs(static_cast<int>(v.size()), v.data());
}

TEST(Cli, KeyEqualsValueForm) {
  const CliArgs args = parse({"--n=12", "--algorithm=alg4"});
  EXPECT_EQ(args.get_int("n", 0), 12);
  EXPECT_EQ(args.get("algorithm", ""), "alg4");
}

TEST(Cli, KeySpaceValueForm) {
  const CliArgs args = parse({"--n", "7", "--family", "grid"});
  EXPECT_EQ(args.get_uint("n", 0), 7u);
  EXPECT_EQ(args.get("family", ""), "grid");
}

TEST(Cli, BareSwitch) {
  const CliArgs args = parse({"--help", "--n", "3"});
  EXPECT_TRUE(args.has("help"));
  EXPECT_TRUE(args.get_bool("help", false));
}

TEST(Cli, DefaultsWhenAbsent) {
  const CliArgs args = parse({});
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_EQ(args.get("x", "dft"), "dft");
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.5), 0.5);
  EXPECT_FALSE(args.get_bool("flag", false));
}

TEST(Cli, TypedParseErrors) {
  const CliArgs args = parse({"--n", "abc", "--p", "zz", "--b", "maybe"});
  EXPECT_THROW(args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("p", 0), std::invalid_argument);
  EXPECT_THROW(args.get_bool("b", false), std::invalid_argument);
}

TEST(Cli, NegativeRejectedByUint) {
  const CliArgs args = parse({"--n", "-3"});
  EXPECT_THROW(args.get_uint("n", 0), std::invalid_argument);
  EXPECT_EQ(args.get_int("n", 0), -3);
}

TEST(Cli, RejectsPositionalArguments) {
  EXPECT_THROW(parse({"oops"}), std::invalid_argument);
}

TEST(Cli, UnusedTracksTypos) {
  const CliArgs args = parse({"--good", "1", "--typo", "2"});
  EXPECT_EQ(args.get_int("good", 0), 1);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

// ---- trace JSON ----

TEST(TraceJson, WellFormedAndComplete) {
  StaticAdversary adv(builders::path(4));
  EngineOptions opt;
  Trace trace;
  opt.on_round = record_into(trace);
  opt.max_rounds = 10;
  Engine engine(adv, placement::rooted(4, 3), core::dispersion_factory(),
                opt);
  const RunResult r = engine.run();
  ASSERT_GE(trace.size(), 1u);
  const std::string json = trace_to_json(trace);
  // Structural smoke checks without a JSON dependency.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"rounds\":["), std::string::npos);
  EXPECT_NE(json.find("\"graph\":{\"n\":4"), std::string::npos);
  EXPECT_NE(json.find("\"newly_occupied\":"), std::string::npos);
  // Balanced brackets.
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceJson, DeadRobotsSerializeAsNull) {
  // Crash a robot in round 1 while a multiplicity remains, so a recorded
  // round's configuration contains a dead robot.
  StaticAdversary adv(builders::path(5));
  EngineOptions opt;
  Trace trace;
  opt.on_round = record_into(trace);
  opt.max_rounds = 20;
  Engine engine(adv, placement::rooted(5, 4), core::dispersion_factory(), opt,
                FaultSchedule({{1, 3, CrashPhase::kBeforeCommunicate}}));
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
  EXPECT_NE(trace_to_json(trace).find("null"), std::string::npos);
}

// ---- ring adversary ----

TEST(RingAdversary, EmitsValidConnectedGraphs) {
  for (const auto strategy :
       {RingAdversary::Strategy::kRandomEdge,
        RingAdversary::Strategy::kWorstEdge,
        RingAdversary::Strategy::kFixedRing}) {
    RingAdversary adv(9, strategy);
    Rng rng(4);
    Configuration conf = placement::uniform_random(9, 6, rng);
    for (Round r = 0; r < 15; ++r) {
      const Graph g = adv.next_graph(r, conf);
      ASSERT_TRUE(validate_round_graph(g, 9).empty());
      // A ring minus at most one edge.
      EXPECT_GE(g.edge_count(), 8u);
      EXPECT_LE(g.edge_count(), 9u);
      for (NodeId v = 0; v < 9; ++v) EXPECT_LE(g.degree(v), 2u);
    }
  }
}

// The ring emitter commits its rows unvalidated (the engine's round-graph
// check validates every round graph once), so every strategy's emission is
// validated here, refilled in place over changing configurations, with the
// fingerprint it folds equal to the one from_port_edges derives.
TEST(RingAdversary, EveryEmissionIsValidAndFingerprintsItsEdges) {
  for (const auto strategy :
       {RingAdversary::Strategy::kRandomEdge,
        RingAdversary::Strategy::kWorstEdge,
        RingAdversary::Strategy::kFixedRing}) {
    for (const std::size_t n : {3u, 4u, 9u, 96u}) {
      RingAdversary adv(n, strategy, 13);
      Rng rng(n);
      Graph out;
      for (Round r = 0; r < 40; ++r) {
        const Configuration conf =
            placement::uniform_random(n, 1 + rng.below(n), rng);
        adv.next_graph_into(r, conf, out);
        ASSERT_EQ(out.validate(), "") << adv.name() << " n=" << n;
        ASSERT_TRUE(validate_round_graph(out, n).empty());
        ASSERT_EQ(out.fingerprint(),
                  Graph::from_port_edges(n, out.edges()).fingerprint())
            << adv.name() << " n=" << n << " round " << r;
      }
    }
  }
}

TEST(RingAdversary, FixedRingKeepsAllEdges) {
  RingAdversary adv(6, RingAdversary::Strategy::kFixedRing);
  const Configuration conf = placement::rooted(6, 3);
  EXPECT_EQ(adv.next_graph(0, conf).edge_count(), 6u);
}

TEST(RingAdversary, WorstEdgeCutsBetweenMultAndNearestEmpty) {
  // Robots {1,2}@0, 3@1, 4@2: nearest empty from node 0 in the full ring is
  // node 5 (one hop counterclockwise). The worst edge to remove is (5,0),
  // forcing travel through the occupied side.
  RingAdversary adv(6, RingAdversary::Strategy::kWorstEdge);
  const Configuration conf = placement::explicit_positions(6, {0, 0, 1, 2});
  const Graph g = adv.next_graph(0, conf);
  EXPECT_FALSE(g.has_edge(5, 0));
  EXPECT_EQ(g.edge_count(), 5u);
}

TEST(RingAdversary, AlgorithmFourDispersesOnDynamicRings) {
  for (const auto strategy : {RingAdversary::Strategy::kRandomEdge,
                              RingAdversary::Strategy::kWorstEdge}) {
    const std::size_t n = 12, k = 9;
    RingAdversary adv(n, strategy, 7);
    EngineOptions opt;
    opt.max_rounds = 10 * k;
    opt.record_progress = true;
    Engine engine(adv, placement::rooted(n, k), core::dispersion_factory(),
                  opt);
    const RunResult r = engine.run();
    EXPECT_TRUE(r.dispersed);
    EXPECT_TRUE(analysis::check_round_bound(r).empty())
        << analysis::check_round_bound(r);
    EXPECT_TRUE(analysis::check_progress_every_round(r).empty());
  }
}

// The brute-force worst-edge scorer the closed form replaced, kept as the
// reference: build the ring minus each candidate edge, BFS from the
// heaviest node, and keep the first cut that maximizes the hop distance to
// the nearest empty node.
Graph reference_ring_without(std::size_t n, std::size_t missing_edge) {
  Graph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == missing_edge) continue;
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n));
  }
  return g;
}

Graph reference_worst_edge_graph(std::size_t n, const Configuration& conf) {
  const auto occ = conf.occupancy();
  NodeId heaviest = kInvalidNode;
  std::size_t heaviest_count = 1;
  for (NodeId v = 0; v < n; ++v) {
    if (occ[v] > heaviest_count) {
      heaviest_count = occ[v];
      heaviest = v;
    }
  }
  if (heaviest == kInvalidNode) return reference_ring_without(n, n);

  std::size_t best_edge = n;
  std::size_t best_score = 0;
  for (std::size_t missing = 0; missing < n; ++missing) {
    const Graph g = reference_ring_without(n, missing);
    const auto dist = bfs_distances(g, heaviest);
    std::size_t nearest_empty = kUnreachable;
    for (NodeId v = 0; v < n; ++v)
      if (occ[v] == 0) nearest_empty = std::min(nearest_empty, dist[v]);
    if (nearest_empty != kUnreachable && nearest_empty > best_score) {
      best_score = nearest_empty;
      best_edge = missing;
    }
  }
  return reference_ring_without(n, best_edge);
}

class ReferenceWorstEdgeRing final : public Adversary {
 public:
  explicit ReferenceWorstEdgeRing(std::size_t n) : n_(n) {}
  std::string name() const override { return "reference-worst-edge-ring"; }
  std::size_t node_count() const override { return n_; }
  void next_graph_into(Round, const Configuration& conf,
                       Graph& out) override {
    out = reference_worst_edge_graph(n_, conf);
  }

 private:
  std::size_t n_;
};

// One adversary instance serves every configuration: the worst-edge
// strategy is stateless, and the shared output Graph is the recycled
// in-place path the engine uses.
void expect_matches_reference(RingAdversary& adv, Graph& out,
                              const Configuration& conf,
                              const std::string& what) {
  const std::size_t n = adv.node_count();
  const Graph want = reference_worst_edge_graph(n, conf);
  adv.next_graph_into(0, conf, out);
  ASSERT_TRUE(out == want) << what;
  ASSERT_EQ(out.fingerprint(), want.fingerprint()) << what;
  ASSERT_EQ(out.edge_count(), want.edge_count()) << what;
  ASSERT_TRUE(adv.next_graph(0, conf) == want) << what;
}

TEST(RingAdversary, WorstEdgeMatchesBruteForceReference) {
  struct Case {
    const char* what;
    std::size_t n;
    std::vector<NodeId> positions;
    std::vector<RobotId> crashed;
    std::size_t cut;  ///< The edge (cut, cut+1) removed; n = full ring.
  };
  const std::vector<Case> cases = {
      {"n=3, a == b", 3, {0, 0}, {}, 0},
      {"n=3, one empty node", 3, {0, 0, 1}, {}, 2},
      {"k=n, no empty node", 5, {0, 1, 2, 3, 4}, {}, 5},
      {"dispersed", 6, {0, 2, 4}, {}, 6},
      {"crash leaves no multiplicity", 6, {2, 2, 3}, {2}, 6},
      {"crash moves the heaviest node", 8, {1, 1, 1, 5, 5, 6}, {1, 2}, 4},
      {"a == b: edge 0 wins", 7, {3, 3}, {}, 0},
      {"tied heaviest: lowest id wins", 9, {1, 1, 0, 5, 5, 6}, {}, 1},
      {"clockwise arc: its first edge", 8, {3, 3, 4, 2, 1}, {}, 3},
      {"counter-clockwise arc: its first edge", 8, {3, 3, 4, 5, 2}, {}, 1},
      {"clockwise arc wraps past edge 0", 8, {7, 7, 0, 6, 5, 4}, {}, 0},
      {"counter-clockwise arc wraps past edge 0", 8, {1, 1, 2, 3, 0}, {}, 0},
  };
  for (const Case& c : cases) {
    Configuration conf = placement::explicit_positions(c.n, c.positions);
    for (const RobotId id : c.crashed) conf.kill(id);
    RingAdversary adv(c.n, RingAdversary::Strategy::kWorstEdge);
    Graph out;
    expect_matches_reference(adv, out, conf, c.what);
    if (c.cut == c.n) {
      EXPECT_EQ(out.edge_count(), c.n) << c.what;
    } else {
      EXPECT_EQ(out.edge_count(), c.n - 1) << c.what;
      EXPECT_FALSE(out.has_edge(static_cast<NodeId>(c.cut),
                                static_cast<NodeId>((c.cut + 1) % c.n)))
          << c.what;
    }
  }

  // Seeded random configurations: sizes from the minimum ring up, robot
  // counts from one to n, crowds packed into a window (long arcs that
  // wrap past edge 0) or spread over the ring, and random crashes.
  Rng rng(20240611);
  std::size_t cut_rounds = 0;
  std::size_t full_rounds = 0;
  std::vector<RingAdversary> advs;
  for (std::size_t n = 3; n <= 40; ++n)
    advs.emplace_back(n, RingAdversary::Strategy::kWorstEdge);
  Graph out;
  for (std::size_t trial = 0; trial < 12000; ++trial) {
    const std::size_t n = 3 + rng.below(38);
    const std::size_t k = 1 + rng.below(n);
    const std::size_t window = 1 + rng.below(n);
    const std::size_t start = rng.below(n);
    std::vector<NodeId> positions(k);
    for (NodeId& p : positions)
      p = static_cast<NodeId>((start + rng.below(window)) % n);
    Configuration conf = placement::explicit_positions(n, positions);
    const std::size_t crashes = rng.below(3) == 0 ? rng.below(k) : 0;
    for (std::size_t i = 0; i < crashes; ++i)
      conf.kill(static_cast<RobotId>(1 + rng.below(k)));
    expect_matches_reference(advs[n - 3], out, conf,
                             "trial " + std::to_string(trial));
    (out.edge_count() == n ? full_rounds : cut_rounds) += 1;
  }
  // Both outcomes are well represented.
  EXPECT_GT(cut_rounds, 5000u);
  EXPECT_GT(full_rounds, 500u);

  // End to end: Algorithm 4 against the reference and against the closed
  // form runs the same execution.
  struct Triple {
    std::size_t n, k;
    NodeId root;
  };
  for (const Triple t : {Triple{3, 3, 0}, Triple{12, 9, 0}, Triple{17, 17, 5},
                         Triple{24, 16, 23}, Triple{40, 31, 13}}) {
    const std::string what = "n=" + std::to_string(t.n) +
                             " k=" + std::to_string(t.k) +
                             " root=" + std::to_string(t.root);
    EngineOptions opt;
    opt.max_rounds = 10 * t.k;
    ReferenceWorstEdgeRing reference(t.n);
    Engine want_engine(reference, placement::rooted(t.n, t.k, t.root),
                       core::dispersion_factory(), opt);
    const RunResult want = want_engine.run();
    RingAdversary fast(t.n, RingAdversary::Strategy::kWorstEdge);
    Engine got_engine(fast, placement::rooted(t.n, t.k, t.root),
                      core::dispersion_factory(), opt);
    const RunResult got = got_engine.run();
    EXPECT_TRUE(got.dispersed) << what;
    EXPECT_EQ(got.rounds, want.rounds) << what;
    EXPECT_EQ(got.total_moves, want.total_moves) << what;
    EXPECT_EQ(got.packet_bits_sent, want.packet_bits_sent) << what;
    EXPECT_TRUE(got.final_config == want.final_config) << what;
  }
}

// ---- analysis checkers: failure paths ----

RunResult fake_result(std::size_t k, std::vector<std::size_t> occ,
                      bool dispersed, Round rounds, std::size_t bits) {
  RunResult r;
  r.k = k;
  r.occupied_per_round = std::move(occ);
  r.initial_occupied = r.occupied_per_round.empty()
                           ? 1
                           : r.occupied_per_round.front();
  r.dispersed = dispersed;
  r.rounds = rounds;
  r.max_memory_bits = bits;
  return r;
}

TEST(Verify, ProgressCheckerFlagsStalls) {
  const RunResult bad = fake_result(5, {2, 3, 3, 5}, true, 3, 3);
  EXPECT_NE(analysis::check_progress_every_round(bad).find("round 1"),
            std::string::npos);
  const RunResult good = fake_result(5, {2, 3, 4, 5}, true, 3, 3);
  EXPECT_TRUE(analysis::check_progress_every_round(good).empty());
}

TEST(Verify, ProgressCheckerNeedsRecording) {
  const RunResult r = fake_result(5, {}, true, 3, 3);
  EXPECT_FALSE(analysis::check_progress_every_round(r).empty());
}

TEST(Verify, MonotoneCheckerFlagsDrops) {
  const RunResult bad = fake_result(5, {3, 4, 2}, true, 2, 3);
  EXPECT_FALSE(analysis::check_occupied_monotone(bad).empty());
}

TEST(Verify, RoundBoundFlagsSlowRuns) {
  RunResult r = fake_result(8, {1, 2}, true, 20, 4);
  EXPECT_NE(analysis::check_round_bound(r).find("bound"), std::string::npos);
  r.rounds = 7;
  EXPECT_TRUE(analysis::check_round_bound(r).empty());
  r.dispersed = false;
  EXPECT_FALSE(analysis::check_round_bound(r).empty());
}

TEST(Verify, MemoryBoundRespectsSlack) {
  RunResult r = fake_result(8, {1}, true, 1, 6);
  EXPECT_FALSE(analysis::check_memory_bound(r).empty());  // bound is 4
  EXPECT_TRUE(analysis::check_memory_bound(r, 2).empty());
}

TEST(Verify, FaultyBoundChecksFinalConfig) {
  RunResult r = fake_result(6, {1}, true, 3, 3);
  r.crashed = 2;
  r.final_config = Configuration(8, {0, 1, 2, 3, 4, 5});
  EXPECT_TRUE(analysis::check_faulty_round_bound(r).empty());
  r.final_config = Configuration(8, {0, 0, 2, 3, 4, 5});
  EXPECT_NE(analysis::check_faulty_round_bound(r).find("multiplicity"),
            std::string::npos);
}

}  // namespace
}  // namespace dyndisp
