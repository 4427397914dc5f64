// The correctness harness's own test suite (src/check): config round-trips,
// oracle gating, the threads differential, and -- the load-bearing part --
// proof that the harness catches what it claims to catch: each planted bug
// (check/planted.h) is convicted by the right oracle at the right round,
// shrunk to a strictly smaller scripted repro, and the dumped artifact
// replays to the same violation.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/scheduler.h"
#include "check/differential.h"
#include "check/fuzzer.h"
#include "check/oracles.h"
#include "check/planted.h"
#include "check/repro.h"
#include "check/shrinker.h"
#include "check/trial.h"
#include "dynamic/random_adversary.h"
#include "graph/builders.h"
#include "util/rng.h"

namespace dyndisp::check {
namespace {

// ---- TrialConfig ----

TEST(TrialConfig, JsonRoundTripsEveryFieldIncludingScript) {
  TrialConfig c;
  c.algorithm = "dfs";
  c.adversary = "churn";
  c.family = "cycle";
  c.placement = "grouped";
  c.comm = "global";
  c.n = 9;
  c.k = 5;
  c.groups = 2;
  c.faults = 1;
  c.max_rounds = 44;
  c.seed = 123;
  c.script = {builders::path(9), builders::cycle(9)};

  const TrialConfig back = TrialConfig::parse_json(c.to_json());
  EXPECT_EQ(back.summary(), c.summary());
  EXPECT_EQ(back.algorithm, c.algorithm);
  EXPECT_EQ(back.comm, c.comm);
  EXPECT_EQ(back.n, c.n);
  EXPECT_EQ(back.k, c.k);
  EXPECT_EQ(back.groups, c.groups);
  EXPECT_EQ(back.faults, c.faults);
  EXPECT_EQ(back.max_rounds, c.max_rounds);
  EXPECT_EQ(back.seed, c.seed);
  ASSERT_EQ(back.script.size(), 2u);
  EXPECT_EQ(back.script[0], c.script[0]);
  EXPECT_EQ(back.script[1], c.script[1]);
}

TEST(TrialConfig, ParseRejectsUnknownKeysAndGarbage) {
  EXPECT_THROW(TrialConfig::parse_json("{\"algorithm\": \"alg4\", \"nope\": 1}"),
               std::exception);
  EXPECT_THROW(TrialConfig::parse_json("not json at all"), std::exception);
}

TEST(TrialConfig, ParseRejectsUnknownCommName) {
  // The spec parser's check: a typo is a typed error, not a local run.
  try {
    (void)TrialConfig::parse_json(R"({"algorithm": "alg4", "comm": "glboal"})");
    ADD_FAILURE() << "unknown comm name accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown comm model 'glboal'"),
              std::string::npos)
        << e.what();
  }
  for (const char* comm : {"default", "global", "local"})
    EXPECT_EQ(TrialConfig::parse_json(std::string(R"({"comm": ")") + comm +
                                      "\"}")
                  .comm,
              comm);
}

// Repro artifacts written while the engine still had the soa /
// flat_packets / incremental / structure_cache switches carry those keys.
// True names the one remaining path and parses to the same trial (same
// summary, no suffix); false asks for a path that no longer exists and is a
// typed error naming the option. New artifacts never write the key.
void expect_retired_key_accepts_only_true(const char* key) {
  SCOPED_TRACE(key);
  const std::string prefix = std::string("{\"seed\": 7, \"") + key;
  const TrialConfig on = TrialConfig::parse_json(prefix + "\": true}");
  EXPECT_EQ(on.summary(), TrialConfig::parse_json("{\"seed\": 7}").summary());
  EXPECT_EQ(on.summary().find("=off"), std::string::npos);
  const std::string json = on.to_json();
  EXPECT_EQ(json.find(std::string("\"") + key + "\""), std::string::npos)
      << json;
  EXPECT_EQ(TrialConfig::parse_json(json).summary(), on.summary());
  try {
    (void)TrialConfig::parse_json(prefix + "\": false}");
    ADD_FAILURE() << "false was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
  }
}

TEST(SoaTrialConfig, JsonRoundTripAndSummarySuffix) {
  expect_retired_key_accepts_only_true("soa");
}

TEST(FlatPacketTrialConfig, JsonRoundTripAndSummarySuffix) {
  expect_retired_key_accepts_only_true("flat_packets");
}

TEST(TrialConfig, RetiredEngineKeysAcceptOnlyTrue) {
  expect_retired_key_accepts_only_true("incremental");
  expect_retired_key_accepts_only_true("structure_cache");
  // Absent keys are the common case.
  const TrialConfig c;
  EXPECT_EQ(TrialConfig::parse_json(c.to_json()).summary(), c.summary());
  EXPECT_EQ(c.summary().find("=off"), std::string::npos);
}

TEST(TrialConfig, MinimumNReflectsComponentFloors) {
  TrialConfig c;
  c.adversary = "ring";
  EXPECT_EQ(minimum_n(c), 3u);
  c.adversary = "ring-worst";
  EXPECT_EQ(minimum_n(c), 3u);
  c.adversary = "static";
  c.family = "torus";
  EXPECT_EQ(minimum_n(c), 7u);
  c.family = "cycle";
  EXPECT_EQ(minimum_n(c), 3u);
  c.adversary = "random";
  c.family = "random";
  EXPECT_EQ(minimum_n(c), 2u);
}

// ---- oracle gating ----

TEST(Oracles, LemmaClaimsFollowNamesAndRegistrations) {
  const Toolbox toolbox;
  EXPECT_TRUE(toolbox.claims_lemmas("alg4"));
  EXPECT_TRUE(toolbox.claims_lemmas("alg4-bfs"));
  EXPECT_FALSE(toolbox.claims_lemmas("dfs"));
  EXPECT_FALSE(toolbox.claims_lemmas("random-walk"));

  const Toolbox lazy = planted_toolbox("lazy");
  EXPECT_TRUE(lazy.claims_lemmas(kPlantedLazyAlgorithm));
}

TEST(Oracles, ProfileGatesOnClaimsCommAndFaults) {
  TrialConfig c;
  c.faults = 0;

  OracleProfile p = oracle_profile(c, /*claims_lemmas=*/true);
  EXPECT_TRUE(p.occupied_monotone);
  EXPECT_TRUE(p.progress);
  EXPECT_TRUE(p.memory);
  EXPECT_TRUE(p.dispersal);
  EXPECT_TRUE(p.round_bound);
  EXPECT_FALSE(p.faulty_round_bound);

  c.faults = 2;  // fault-free-only oracles drop out, Theorem 5 binds
  p = oracle_profile(c, true);
  EXPECT_FALSE(p.progress);
  EXPECT_FALSE(p.occupied_monotone);
  EXPECT_FALSE(p.round_bound);
  EXPECT_TRUE(p.faulty_round_bound);
  EXPECT_TRUE(p.dispersal);

  c.comm = "local";  // outside the model the paper proves the lemmas in
  p = oracle_profile(c, true);
  EXPECT_FALSE(p.memory);
  EXPECT_FALSE(p.dispersal);
  EXPECT_FALSE(p.faulty_round_bound);

  // No claims: only the engine's always-on round-graph safety applies.
  c.comm = "default";
  p = oracle_profile(c, /*claims_lemmas=*/false);
  EXPECT_FALSE(p.dispersal);
  EXPECT_FALSE(p.memory);
}

// ---- run_checked on healthy components ----

TEST(RunChecked, Alg4PassesAllOraclesOnRegistryAdversaries) {
  for (const char* adversary : {"random", "star-star", "static", "tree"}) {
    TrialConfig c;
    c.algorithm = "alg4";
    c.adversary = adversary;
    c.family = "cycle";
    c.placement = "rooted";
    c.n = 10;
    c.k = 7;
    c.seed = 2;
    const CheckedOutcome out = run_checked(c, Toolbox{});
    ASSERT_TRUE(out.completed) << adversary;
    EXPECT_FALSE(out.violation.has_value())
        << adversary << ": " << (out.violation ? out.violation->message : "");
    EXPECT_TRUE(out.result.dispersed) << adversary;
  }
}

TEST(RunChecked, BaselinesAreNotHeldToTheLemmas) {
  // random-walk stalls and regresses freely; with no lemma claims the only
  // oracle is graph safety, so a short undispersed run is still clean.
  TrialConfig c;
  c.algorithm = "random-walk";
  c.adversary = "random";
  c.n = 8;
  c.k = 6;
  c.max_rounds = 20;
  c.seed = 3;
  const CheckedOutcome out = run_checked(c, Toolbox{});
  ASSERT_TRUE(out.completed);
  EXPECT_FALSE(out.violation.has_value())
      << (out.violation ? out.violation->message : "");
}

TEST(RunChecked, DispersalOracleFiresWhenTheHorizonIsTooShort) {
  TrialConfig c;
  c.algorithm = "alg4";
  c.adversary = "static";
  c.family = "path";
  c.placement = "rooted";
  c.n = 12;
  c.k = 10;
  c.max_rounds = 2;  // a rooted path run cannot disperse 10 robots by then
  c.seed = 1;
  const CheckedOutcome out = run_checked(c, Toolbox{});
  ASSERT_TRUE(out.violation.has_value());
  EXPECT_EQ(out.violation->oracle, "dispersal");
}

// ---- planted bugs: the acceptance criteria of the harness ----

TEST(PlantedDisconnect, CaughtAtTheExactRoundShrunkAndReplayed) {
  const Toolbox toolbox = planted_toolbox("disconnect");
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TrialConfig c;
    c.algorithm = "random-walk";  // never disperses this fast: the run is
    c.adversary = kPlantedDisconnectAdversary;  // alive at kDisconnectRound
    c.placement = "rooted";
    c.n = 14;
    c.k = 14;
    c.seed = seed;

    const CheckedOutcome out = run_checked(c, toolbox);
    ASSERT_TRUE(out.violation.has_value());
    EXPECT_EQ(out.violation->oracle, "round-graph");
    EXPECT_EQ(out.violation->round, kDisconnectRound);
    EXPECT_NE(out.violation->message.find("not connected"), std::string::npos)
        << out.violation->message;

    const ShrinkResult shrunk = shrink(c, *out.violation, toolbox);
    EXPECT_EQ(shrunk.violation.oracle, "round-graph");
    // The shrinker must strictly reduce n and capture + strictly reduce the
    // adversary's round script.
    EXPECT_LT(shrunk.config.n, c.n);
    ASSERT_GT(shrunk.captured_script_length, 0u);
    ASSERT_FALSE(shrunk.config.script.empty());
    EXPECT_LT(shrunk.config.script.size(), shrunk.captured_script_length);
    // Dropping script prefixes pulls the violation toward round 0.
    EXPECT_LE(shrunk.violation.round, out.violation->round);

    // The artifact must replay to the same violation after a disk
    // round-trip.
    ReproArtifact artifact;
    artifact.config = shrunk.config;
    artifact.expected = shrunk.violation;
    artifact.note = "planted disconnect (test)";
    const std::string path =
        ::testing::TempDir() + "dyndisp_planted_disconnect_repro.json";
    write_artifact(artifact, path);
    const ReproArtifact loaded = load_artifact(path);
    EXPECT_EQ(loaded.config.summary(), shrunk.config.summary());
    const ReplayOutcome replayed = replay(loaded, toolbox);
    EXPECT_TRUE(replayed.reproduced);
    ASSERT_TRUE(replayed.violation.has_value());
    EXPECT_EQ(replayed.violation->oracle, "round-graph");
  }
}

/// Random graphs until round 4, then two disjoint paths: a late
/// round-graph violation for the shrinker's jump.
class LateDisconnectAdversary final : public Adversary {
 public:
  LateDisconnectAdversary(std::size_t n, std::uint64_t seed)
      : inner_(n, n / 3, seed) {}
  std::string name() const override { return "late-disconnect"; }
  std::size_t node_count() const override { return inner_.node_count(); }
  void next_graph_into(Round r, const Configuration& conf,
                       Graph& out) override {
    if (r < 4) {
      inner_.next_graph_into(r, conf, out);
      return;
    }
    const std::size_t n = node_count();
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId v = 1; v < n / 2; ++v) edges.emplace_back(v - 1, v);
    for (NodeId v = n / 2 + 1; v < n; ++v) edges.emplace_back(v - 1, v);
    out.assign_edges(n, edges);
  }

 private:
  RandomAdversary inner_;
};

TEST(Shrinker, ScriptJumpsStraightToTheViolatingGraph) {
  Toolbox toolbox;
  toolbox.add_adversary(
      "late-disconnect",
      [](const std::string&, std::size_t n, std::uint64_t seed) {
        return std::make_unique<LateDisconnectAdversary>(n, seed);
      });
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TrialConfig c;
    c.algorithm = "random-walk";
    c.adversary = "late-disconnect";
    c.placement = "rooted";
    c.n = 14;
    c.k = 14;
    c.seed = seed;
    const CheckedOutcome out = run_checked(c, toolbox);
    ASSERT_TRUE(out.violation.has_value());
    ASSERT_EQ(out.violation->round, 4u);

    const ShrinkResult shrunk = shrink(c, *out.violation, toolbox);
    EXPECT_EQ(shrunk.violation.oracle, "round-graph");
    // The bad graph alone is the repro: one graph, convicted at round 0.
    EXPECT_EQ(shrunk.config.script.size(), 1u);
    EXPECT_EQ(shrunk.violation.round, 0u);
  }
}

TEST(PlantedLazy, ProgressOracleConvictsAtTheLazyRound) {
  const Toolbox toolbox = planted_toolbox("lazy");
  TrialConfig c;
  c.algorithm = kPlantedLazyAlgorithm;
  c.adversary = "static";
  c.family = "path";  // rooted path: exactly one new node per round, so the
  c.placement = "rooted";  // run cannot disperse before the plant triggers
  c.n = 12;
  c.k = 10;
  c.seed = 4;

  const CheckedOutcome out = run_checked(c, toolbox);
  ASSERT_TRUE(out.violation.has_value());
  EXPECT_EQ(out.violation->oracle, "progress");
  EXPECT_EQ(out.violation->round, kLazyRound);

  const ShrinkResult shrunk = shrink(c, *out.violation, toolbox);
  EXPECT_EQ(shrunk.violation.oracle, "progress");
  EXPECT_LT(shrunk.config.n, c.n);
  EXPECT_LE(shrunk.config.k, c.k);
  ASSERT_GT(shrunk.captured_script_length, 0u);
  ASSERT_FALSE(shrunk.config.script.empty());
  EXPECT_LT(shrunk.config.script.size(), shrunk.captured_script_length);
  // Replaying the minimized scripted config still convicts the plant.
  const CheckedOutcome again = run_checked(shrunk.config, toolbox);
  ASSERT_TRUE(again.violation.has_value());
  EXPECT_EQ(again.violation->oracle, "progress");
}

// ---- repro artifacts ----

TEST(Repro, ArtifactJsonRoundTrips) {
  ReproArtifact artifact;
  artifact.config.algorithm = "alg4";
  artifact.config.n = 7;
  artifact.config.k = 4;
  artifact.config.script = {builders::cycle(7)};
  artifact.expected = Violation{"round-graph", 3, "graph is not connected"};
  artifact.note = "hand-written";

  const ReproArtifact back = parse_artifact(artifact_json(artifact));
  EXPECT_EQ(back.config.summary(), artifact.config.summary());
  EXPECT_EQ(back.expected.oracle, "round-graph");
  EXPECT_EQ(back.expected.round, 3u);
  EXPECT_EQ(back.expected.message, "graph is not connected");
  EXPECT_EQ(back.note, "hand-written");
  ASSERT_EQ(back.config.script.size(), 1u);
  EXPECT_EQ(back.config.script[0], artifact.config.script[0]);
}

TEST(Repro, ParseRejectsMalformedArtifacts) {
  EXPECT_THROW(parse_artifact("not json"), std::exception);
  EXPECT_THROW(parse_artifact("{}"), std::invalid_argument);
  EXPECT_THROW(parse_artifact("{\"dyndisp_check_repro\": 99}"),
               std::invalid_argument);
}

// ---- differential oracles ----

TEST(RunChecked, IsTheCampaignRunOfEachSeed) {
  // The harness builds through make_trial_spec like campaigns do, so a
  // plain harness run of a seeded algorithm equals the campaign record of
  // the same tuple and seed.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    TrialConfig c;
    c.algorithm = "random-walk";
    c.n = 14;
    c.k = 9;
    c.faults = 2;
    c.seed = seed;
    const RunResult plain = run_plain(c, Toolbox{}, 1);
    const campaign::TrialRecord record =
        campaign::run_job(c.job(), "", /*record_timing=*/false);
    ASSERT_TRUE(record.ok) << record.error;
    EXPECT_EQ(plain.rounds, record.rounds) << c.summary();
    EXPECT_EQ(plain.total_moves, record.moves) << c.summary();
    EXPECT_EQ(plain.crashed, record.crashed) << c.summary();
  }
}

TEST(Differential, DigestIsDeterministicAndDiscriminating) {
  TrialConfig c;
  c.algorithm = "alg4";
  c.adversary = "random";
  c.n = 12;
  c.k = 8;
  c.seed = 7;
  const Toolbox toolbox;
  const std::uint64_t a = digest_run(run_plain(c, toolbox, 1));
  const std::uint64_t b = digest_run(run_plain(c, toolbox, 1));
  EXPECT_EQ(a, b);  // same trial, same digest
  c.seed = 8;
  EXPECT_NE(digest_run(run_plain(c, toolbox, 1)), a);  // different run
}

TEST(Differential, ThreadsAgreeOnTypicalTrials) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    TrialConfig c;
    c.algorithm = "alg4";
    c.adversary = "random";
    c.family = "random";
    c.placement = "random";
    c.n = 14;
    c.k = 9;
    c.seed = seed;
    const DiffReport threads = diff_threads(c, Toolbox{}, 4);
    EXPECT_TRUE(threads.ok) << threads.detail;
  }
}

// ---- the fuzzer itself ----

TEST(Fuzzer, RandomTrialsAreWellFormed) {
  Rng rng(99);
  FuzzOptions options;
  options.max_n = 20;
  const Toolbox toolbox;
  for (int i = 0; i < 50; ++i) {
    const TrialConfig c = random_trial(rng, toolbox, options);
    // n is normalized to the adversary's actual node count, so k, groups,
    // and the placement always fit the emitted graphs.
    const auto adversary =
        toolbox.adversary(c.adversary, c.family, c.n, c.seed);
    EXPECT_EQ(adversary->node_count(), c.n) << c.summary();
    EXPECT_GE(c.k, 2u);
    EXPECT_LE(c.k, c.n);
    EXPECT_GE(c.groups, 1u);
    EXPECT_LE(c.groups, c.k);
    EXPECT_LT(c.faults, c.k);
    EXPECT_GE(c.n, minimum_n(c));
  }
}

TEST(Fuzzer, HundredRegistryTrialsAreCleanUnderTheThreadsDifferential) {
  // The acceptance run: >= 100 fuzzed trials over the real registry, every
  // clean trial differential-checked (threads 1 vs 4). Any oracle or
  // differential failure here is a real bug in the library, not in the
  // harness.
  FuzzOptions options;
  options.trials = 100;
  options.max_n = 16;
  options.base_seed = 20260806;
  options.differential = true;
  options.diff_threads = 4;
  options.max_failures = 1;
  const FuzzReport report = fuzz(options, Toolbox{});
  EXPECT_EQ(report.trials_run, 100u);
  EXPECT_EQ(report.differential_trials, 100u);
  ASSERT_TRUE(report.clean())
      << "[" << report.failures.front().violation.oracle << "] "
      << report.failures.front().violation.message << " in "
      << report.failures.front().original.summary();
}

TEST(Fuzzer, PlantedToolboxesConvictThroughTheFullPipeline) {
  // End-to-end: fuzz the planted pool, expect a shrunk failure with the
  // right oracle (the CLI's --plant self-tests run the same path).
  FuzzOptions options;
  options.trials = 25;
  options.max_n = 14;
  options.base_seed = 3;
  options.differential = false;
  options.max_failures = 1;

  const FuzzReport disconnect = fuzz(options, planted_toolbox("disconnect"));
  ASSERT_FALSE(disconnect.clean());
  EXPECT_EQ(disconnect.failures.front().violation.oracle, "round-graph");

  // Fault-free, so the convicting oracle is Lemma 7's progress check (under
  // faults that oracle is gated off and the plant is instead convicted
  // post-run by the dispersal oracle).
  options.fault_probability = 0.0;
  const FuzzReport lazy = fuzz(options, planted_toolbox("lazy"));
  ASSERT_FALSE(lazy.clean());
  EXPECT_EQ(lazy.failures.front().violation.oracle, "progress");
}

}  // namespace
}  // namespace dyndisp::check
