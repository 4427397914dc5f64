// Campaign engine: spec parsing/validation, deterministic expansion, the
// registry, the JSONL result store (resume + torn lines), the scheduler's
// per-job isolation, and thread-count-independent aggregation.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "campaign/registry.h"
#include "campaign/scheduler.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "util/json.h"

namespace dyndisp::campaign {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test case, removed up-front so reruns are
/// clean.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("dyndisp_" + name);
  fs::remove_all(dir);
  return dir.string();
}

constexpr const char* kSmallSpec = R"({
  "name": "small",
  "axes": {
    "algorithms": ["alg4"],
    "adversaries": ["random"],
    "n": [12],
    "k": [6]
  },
  "seeds": 4
})";

// ---------------------------------------------------------------------------
// JSON reader

TEST(JsonReader, ParsesDocument) {
  const JsonValue v = JsonValue::parse(
      R"({"a": [1, 2.5, -3], "b": {"x": "he\"llo\n"}, "c": true, "d": null})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members().size(), 4u);
  EXPECT_EQ(v.members()[0].first, "a");  // member order preserved
  EXPECT_EQ(v.members()[3].first, "d");
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(a->items()[1].as_number(), 2.5);
  EXPECT_DOUBLE_EQ(a->items()[2].as_number(), -3.0);
  EXPECT_EQ(a->items()[0].as_uint(), 1u);
  EXPECT_EQ(v.find("b")->find("x")->as_string(), "he\"llo\n");
  EXPECT_TRUE(v.find("c")->as_bool());
  EXPECT_TRUE(v.find("d")->is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonReader, ParsesEscapesAndUnicode) {
  const JsonValue v = JsonValue::parse(R"("A\t\\é")");
  EXPECT_EQ(v.as_string(), "A\t\\\xC3\xA9");
}

TEST(JsonReader, RejectsMalformed) {
  const char* bad[] = {
      "",           "{",       "[1,]",        "{\"a\": }", "{\"a\" 1}",
      "{'a': 1}",   "tru",     "01x",         "\"unterminated",
      "{\"a\":1} trailing", "[1 2]", "{\"a\":1,}", "\"bad\\q\"",
  };
  for (const char* text : bad) {
    EXPECT_THROW(JsonValue::parse(text), std::invalid_argument)
        << "accepted: " << text;
  }
}

TEST(JsonReader, LargeIntegersRoundTripLosslessly) {
  // Integer tokens must not route through a double: values above 2^53 would
  // silently round, so a seed read back from a store could differ from the
  // one that produced the record.
  EXPECT_EQ(JsonValue::parse("9007199254740993").as_uint(),
            9007199254740993ull);  // 2^53 + 1, not representable as double
  EXPECT_EQ(JsonValue::parse("18446744073709551615").as_uint(),
            18446744073709551615ull);  // UINT64_MAX
  EXPECT_THROW((void)JsonValue::parse("18446744073709551616").as_uint(),
               std::invalid_argument);  // overflows uint64
}

TEST(JsonReader, RejectsTypeMismatch) {
  const JsonValue v = JsonValue::parse("[1, -2]");
  EXPECT_THROW((void)v.as_string(), std::invalid_argument);
  EXPECT_THROW((void)v.members(), std::invalid_argument);
  EXPECT_THROW((void)v.items()[1].as_uint(),
               std::invalid_argument);  // negative
  EXPECT_THROW((void)JsonValue::parse("1.5").as_uint(),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Registry

TEST(Registry, ListsAndResolvesEveryName) {
  const Registry& registry = Registry::instance();
  for (const std::string& name : registry.algorithm_names()) {
    EXPECT_TRUE(registry.has_algorithm(name));
    EXPECT_NE(registry.algorithm(name, 1).factory, nullptr);
  }
  for (const std::string& name : registry.adversary_names())
    EXPECT_NE(registry.adversary(name, "random", 10, 1), nullptr);
  for (const std::string& name : registry.family_names())
    EXPECT_GT(registry.family(name, 10, 1).node_count(), 0u);
  for (const std::string& name : registry.placement_names()) {
    if (name == "grouped") continue;  // needs groups <= k
    EXPECT_EQ(registry.placement(name, 12, 6, 3, 1).robot_count(), 6u);
  }
  // The names dyndisp_sim documents are all present.
  EXPECT_TRUE(registry.has_algorithm("alg4"));
  EXPECT_TRUE(registry.has_algorithm("dfs"));
  EXPECT_TRUE(registry.has_adversary("star-star"));
  EXPECT_TRUE(registry.has_family("grid"));
  EXPECT_TRUE(registry.has_placement("rooted"));
}

TEST(Registry, RingAdversariesRejectRingsBelowThreeNodes) {
  // No ring exists on two nodes; construction is a typed error, never an
  // abort, so a campaign can record it as a failed job.
  const Registry& registry = Registry::instance();
  for (const char* name : {"ring", "ring-worst"}) {
    SCOPED_TRACE(name);
    EXPECT_THROW(registry.adversary(name, "random", 2, 1),
                 std::invalid_argument);
    EXPECT_NE(registry.adversary(name, "random", 3, 1), nullptr);
  }
}

TEST(Registry, ThrowsOnUnknownNames) {
  const Registry& registry = Registry::instance();
  EXPECT_THROW(registry.algorithm("nope", 1), std::invalid_argument);
  EXPECT_THROW(registry.adversary("nope", "random", 10, 1),
               std::invalid_argument);
  EXPECT_THROW(registry.family("nope", 10, 1), std::invalid_argument);
  EXPECT_THROW(registry.placement("nope", 10, 5, 3, 1),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Spec parsing + expansion

TEST(CampaignSpec, ParsesAxesAndCountsJobs) {
  const CampaignSpec spec = CampaignSpec::parse_json(R"({
    "name": "grid",
    "axes": {
      "algorithms": ["alg4", "dfs"],
      "adversaries": ["random", "static"],
      "n": [12],
      "k": [6, 8],
      "faults": [0, 2]
    },
    "seeds": 3,
    "base_seed": 5
  })");
  EXPECT_EQ(spec.name(), "grid");
  EXPECT_EQ(spec.job_count(), 2u * 2u * 1u * 2u * 2u * 3u);
  EXPECT_EQ(spec.expand().size(), spec.job_count());
}

TEST(CampaignSpec, ExpansionIsDeterministicAndOrdered) {
  const CampaignSpec spec = CampaignSpec::parse_json(R"({
    "name": "order",
    "axes": {
      "algorithms": ["alg4", "dfs"],
      "adversaries": ["random"],
      "n": [10],
      "k": [5],
      "faults": [0, 1]
    },
    "seeds": 2
  })");
  const std::vector<JobSpec> a = spec.expand();
  const std::vector<JobSpec> b = spec.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id(), b[i].id());
    EXPECT_EQ(a[i].index, i);
  }
  // Fixed nesting: algorithm > adversary > n > k > comm > faults > seed.
  EXPECT_EQ(a[0].id(), "alg4|random|n=10|k=5|comm=default|f=0|seed=1");
  EXPECT_EQ(a[1].id(), "alg4|random|n=10|k=5|comm=default|f=0|seed=2");
  EXPECT_EQ(a[2].id(), "alg4|random|n=10|k=5|comm=default|f=1|seed=1");
  EXPECT_EQ(a[4].id(), "dfs|random|n=10|k=5|comm=default|f=0|seed=1");
}

TEST(CampaignSpec, DerivesKFromNWhenOmitted) {
  const CampaignSpec spec = CampaignSpec::parse_json(
      R"({"name": "defk", "axes": {"n": [20]}})");
  const std::vector<JobSpec> jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].k, 13u);  // max(2, 2*20/3), the dyndisp_sim default
  EXPECT_EQ(jobs[0].effective_max_rounds(), 100u * 13u);
}

TEST(CampaignSpec, RejectsUnknownNamesAndMalformedInput) {
  EXPECT_THROW(CampaignSpec::parse_json("{\"axes\": {}}"),
               std::invalid_argument);  // no name
  EXPECT_THROW(CampaignSpec::parse_json("not json at all"),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse_json("[1, 2]"), std::invalid_argument);
  EXPECT_THROW(
      CampaignSpec::parse_json(
          R"({"name": "x", "axes": {"algorithms": ["alg9000"]}})"),
      std::invalid_argument);
  EXPECT_THROW(
      CampaignSpec::parse_json(
          R"({"name": "x", "axes": {"adversaries": ["nope"]}})"),
      std::invalid_argument);
  EXPECT_THROW(
      CampaignSpec::parse_json(R"({"name": "x", "family": "nope"})"),
      std::invalid_argument);
  EXPECT_THROW(
      CampaignSpec::parse_json(R"({"name": "x", "placement": "nope"})"),
      std::invalid_argument);
  EXPECT_THROW(
      CampaignSpec::parse_json(
          R"({"name": "x", "axes": {"comm": ["telepathy"]}})"),
      std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse_json(R"({"name": "x", "typo_key": 1})"),
               std::invalid_argument);
  EXPECT_THROW(
      CampaignSpec::parse_json(R"({"name": "x", "axes": {"typo_axis": []}})"),
      std::invalid_argument);
  EXPECT_THROW(CampaignSpec::parse_json(R"({"name": "x", "seeds": 0})"),
               std::invalid_argument);
  EXPECT_THROW(
      CampaignSpec::parse_json(R"({"name": "x", "axes": {"n": [-4]}})"),
      std::invalid_argument);
}

TEST(CampaignSpec, RetiredEngineKeysAcceptOnlyTrue) {
  const CampaignSpec plain = CampaignSpec::parse_json(kSmallSpec);
  const std::string body = std::string(kSmallSpec).substr(1);  // after '{'
  for (const char* key :
       {"soa", "flat_packets", "incremental", "structure_cache"}) {
    SCOPED_TRACE(key);
    const std::string prefix = std::string("{\"") + key;
    // True describes the one remaining path: same jobs, ids and hash.
    const CampaignSpec on =
        CampaignSpec::parse_json(prefix + "\": true," + body);
    EXPECT_EQ(on.hash(), plain.hash());
    ASSERT_EQ(on.expand().size(), plain.expand().size());
    EXPECT_EQ(on.expand().front().id(), plain.expand().front().id());
    // False asks for a removed engine path: a typed error naming it.
    try {
      (void)CampaignSpec::parse_json(prefix + "\": false," + body);
      ADD_FAILURE() << "false was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
  // Absent keys leave default job ids without any option suffix.
  EXPECT_EQ(plain.expand().front().id(), "alg4|random|n=12|k=6|comm=default|f=0|seed=1");
}

TEST(CampaignSpec, HashIgnoresSeedRangeButNotAxes) {
  const CampaignSpec a =
      CampaignSpec::parse_json(R"({"name": "h", "seeds": 2})");
  const CampaignSpec b =
      CampaignSpec::parse_json(R"({"name": "h", "seeds": 9})");
  const CampaignSpec c = CampaignSpec::parse_json(
      R"({"name": "h", "axes": {"faults": [1]}, "seeds": 2})");
  EXPECT_EQ(a.hash(), b.hash());  // extending seeds resumes the same store
  EXPECT_NE(a.hash(), c.hash());
}

// ---------------------------------------------------------------------------
// Store + scheduler

TEST(Campaign, RunPersistsOneRecordPerTrial) {
  const CampaignSpec spec = CampaignSpec::parse_json(kSmallSpec);
  ResultStore store(scratch_dir("run"));
  const CampaignOutcome outcome = run_campaign(spec, store, 1);
  EXPECT_EQ(outcome.total, 4u);
  EXPECT_EQ(outcome.executed, 4u);
  EXPECT_EQ(outcome.skipped, 0u);
  EXPECT_EQ(outcome.failed, 0u);

  const std::vector<TrialRecord> records = store.load();
  ASSERT_EQ(records.size(), 4u);
  for (const TrialRecord& r : records) {
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.dispersed);
    EXPECT_EQ(r.spec_hash, spec.hash());
    EXPECT_GT(r.rounds, 0u);
    EXPECT_GE(r.wall_ms, 0.0);
  }
  // The spec copy and manifest exist and parse.
  EXPECT_TRUE(std::filesystem::exists(store.spec_path()));
  const std::vector<RunCounters> runs = store.run_history();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].executed, 4u);
  EXPECT_GT(runs[0].wall_ms, 0.0);
}

TEST(Campaign, RecordsMatchDirectTrialRuns) {
  const CampaignSpec spec = CampaignSpec::parse_json(kSmallSpec);
  ResultStore store(scratch_dir("direct"));
  run_campaign(spec, store, 2);
  for (const TrialRecord& r : store.load()) {
    const RunResult direct = analysis::run_trial(
        make_trial_spec(r.job, Registry::instance().algorithm(r.job.algorithm,
                                                              r.job.seed)),
        r.job.seed);
    EXPECT_EQ(r.dispersed, direct.dispersed) << r.job.id();
    EXPECT_EQ(r.rounds, direct.rounds) << r.job.id();
    EXPECT_EQ(r.moves, direct.total_moves) << r.job.id();
    EXPECT_EQ(r.memory_bits, direct.max_memory_bits) << r.job.id();
  }
}

TEST(Campaign, AggregateIsIdenticalAtAnyThreadCount) {
  const CampaignSpec spec = CampaignSpec::parse_json(R"({
    "name": "threads",
    "axes": {
      "algorithms": ["alg4", "dfs"],
      "adversaries": ["random", "static"],
      "n": [12],
      "k": [6],
      "faults": [0, 2]
    },
    "seeds": 3
  })");
  ResultStore serial(scratch_dir("threads1"));
  ResultStore parallel(scratch_dir("threads4"));
  run_campaign(spec, serial, 1);
  run_campaign(spec, parallel, 4);

  const auto groups1 = aggregate(serial.load());
  const auto groups4 = aggregate(parallel.load());
  // Bitwise-identical aggregates: the rendered report and every sample
  // sequence agree exactly.
  EXPECT_EQ(render_report("threads", groups1),
            render_report("threads", groups4));
  ASSERT_EQ(groups1.size(), groups4.size());
  for (std::size_t g = 0; g < groups1.size(); ++g) {
    EXPECT_EQ(groups1[g].rounds.samples(), groups4[g].rounds.samples());
    EXPECT_EQ(groups1[g].moves.samples(), groups4[g].moves.samples());
    EXPECT_EQ(groups1[g].dispersed, groups4[g].dispersed);
  }
}

TEST(Campaign, ResumeSkipsCompletedRecords) {
  const CampaignSpec spec = CampaignSpec::parse_json(kSmallSpec);
  const std::string dir = scratch_dir("resume");
  {
    ResultStore store(dir);
    run_campaign(spec, store, 1);
  }
  // Simulate a kill after two finished trials: truncate the JSONL.
  {
    std::ifstream in(dir + "/results.jsonl");
    std::string line, kept;
    for (int i = 0; i < 2 && std::getline(in, line); ++i) kept += line + "\n";
    in.close();
    std::ofstream out(dir + "/results.jsonl", std::ios::trunc);
    out << kept;
  }
  ResultStore store(dir);
  ASSERT_EQ(store.load().size(), 2u);
  const CampaignOutcome outcome = run_campaign(spec, store, 1);
  EXPECT_EQ(outcome.executed, 2u);  // only the missing trials re-ran
  EXPECT_EQ(outcome.skipped, 2u);
  EXPECT_EQ(outcome.completed, 4u);
  EXPECT_EQ(store.load().size(), 4u);  // no duplicates
  // The manifest's run history shows both invocations.
  const std::vector<RunCounters> runs = store.run_history();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs.back().executed, 2u);
  EXPECT_EQ(runs.back().skipped, 2u);

  // A fully complete store resumes to a no-op.
  const CampaignOutcome noop = run_campaign(spec, store, 1);
  EXPECT_EQ(noop.executed, 0u);
  EXPECT_EQ(noop.skipped, 4u);
}

TEST(Campaign, TornFinalLineIsDiscardedAndReRun) {
  const CampaignSpec spec = CampaignSpec::parse_json(kSmallSpec);
  const std::string dir = scratch_dir("torn");
  {
    ResultStore store(dir);
    run_campaign(spec, store, 1);
  }
  {
    // Keep 3 complete lines, then a torn fourth (killed mid-write).
    std::ifstream in(dir + "/results.jsonl");
    std::string line, kept;
    for (int i = 0; i < 3 && std::getline(in, line); ++i) kept += line + "\n";
    in.close();
    std::ofstream out(dir + "/results.jsonl", std::ios::trunc);
    out << kept << R"({"job": 3, "id": "alg4|random|n=12|k=6)";
  }
  ResultStore store(dir);
  EXPECT_EQ(store.load().size(), 3u);
  const CampaignOutcome outcome = run_campaign(spec, store, 1);
  EXPECT_EQ(outcome.executed, 1u);
  EXPECT_EQ(outcome.skipped, 3u);
  // The re-run record must not be fused onto the torn fragment: the store
  // holds exactly the 4 complete records and every one parses back.
  EXPECT_EQ(store.load().size(), 4u);
}

TEST(Campaign, MidFileCorruptionFailsLoudly) {
  const CampaignSpec spec = CampaignSpec::parse_json(kSmallSpec);
  const std::string dir = scratch_dir("midcorrupt");
  {
    ResultStore store(dir);
    run_campaign(spec, store, 1);
  }
  {
    // Corrupt a record in the *middle* of the file. Unlike a torn final
    // line this is not a kill signature; silently truncating at it would
    // under-count trials.
    std::ifstream in(dir + "/results.jsonl");
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    in.close();
    ASSERT_EQ(lines.size(), 4u);
    lines[1] = R"({"job": gar)";
    std::ofstream out(dir + "/results.jsonl", std::ios::trunc);
    for (const std::string& l : lines) out << l << "\n";
  }
  ResultStore store(dir);
  EXPECT_THROW(store.load(), std::runtime_error);
}

TEST(Campaign, RecordsRoundTripExactly) {
  ResultStore store(scratch_dir("roundtrip"));
  TrialRecord r;
  r.job.index = 7;
  r.job.algorithm = "alg4";
  r.job.adversary = "random";
  r.job.family = "random";
  r.job.placement = "rooted";
  r.job.comm = "default";
  r.job.n = 12;
  r.job.k = 6;
  r.job.seed = 3;
  r.spec_hash = "abc";
  r.rounds = 41;
  r.wall_ms = 123.0 / 7.0;  // needs more than 6 significant digits
  store.append(r);
  const std::vector<TrialRecord> loaded = store.load();
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].wall_ms, r.wall_ms);  // bitwise, not approximate
  EXPECT_EQ(loaded[0].job.id(), r.job.id());
}

TEST(Campaign, ProgressCountsOnlyCurrentExpansion) {
  // A store built with more seeds is a valid resume target for the same spec
  // at fewer seeds (the hash ignores the seed count); the progress counter
  // must count against the current expansion, never exceeding [total/total].
  CampaignSpec six = CampaignSpec::parse_json(kSmallSpec);
  six.set_seeds(6);
  const std::string dir = scratch_dir("progress");
  {
    ResultStore store(dir);
    run_campaign(six, store, 1);
  }
  {
    // Drop the seed-2 record: 5 remain, two outside a 4-seed expansion.
    std::ifstream in(dir + "/results.jsonl");
    std::string line, kept;
    while (std::getline(in, line))
      if (line.find("seed=2") == std::string::npos) kept += line + "\n";
    in.close();
    std::ofstream out(dir + "/results.jsonl", std::ios::trunc);
    out << kept;
  }
  const CampaignSpec four = CampaignSpec::parse_json(kSmallSpec);  // seeds: 4
  ResultStore store(dir);
  std::ostringstream progress;
  const CampaignOutcome outcome = run_campaign(four, store, 1, &progress);
  EXPECT_EQ(outcome.executed, 1u);
  EXPECT_EQ(outcome.skipped, 3u);
  EXPECT_NE(progress.str().find("[4/4]"), std::string::npos) << progress.str();
}

TEST(Campaign, TrialFailureIsRecordedNotFatal) {
  // grouped placement with groups > k throws inside the trial; the job must
  // produce a failure record while the rest of the campaign completes.
  const CampaignSpec spec = CampaignSpec::parse_json(R"({
    "name": "isolation",
    "axes": {
      "algorithms": ["alg4"],
      "adversaries": ["random"],
      "n": [12],
      "k": [6]
    },
    "placement": "grouped",
    "groups": 30,
    "seeds": 2
  })");
  ResultStore store(scratch_dir("isolation"));
  const CampaignOutcome outcome = run_campaign(spec, store, 2);
  EXPECT_EQ(outcome.executed, 2u);
  EXPECT_EQ(outcome.failed, 2u);
  for (const TrialRecord& r : store.load()) {
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.error.empty());
  }
  const auto groups = aggregate(store.load());
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].failed, 2u);
  EXPECT_EQ(groups[0].trials, 2u);
}

TEST(Campaign, TinyRingIsRecordedNotFatal) {
  // The ring adversaries need n >= 3; n = 2 must fail its jobs as records
  // instead of aborting the whole run.
  const CampaignSpec spec = CampaignSpec::parse_json(R"({
    "name": "tiny-ring",
    "axes": {
      "algorithms": ["alg4"],
      "adversaries": ["ring", "ring-worst"],
      "n": [2]
    }
  })");
  ResultStore store(scratch_dir("tiny_ring"));
  const CampaignOutcome outcome = run_campaign(spec, store, 1);
  EXPECT_EQ(outcome.executed, 2u);
  EXPECT_EQ(outcome.failed, 2u);
  const std::vector<TrialRecord> records = store.load();
  ASSERT_EQ(records.size(), 2u);
  for (const TrialRecord& r : records) {
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("at least 3 nodes"), std::string::npos) << r.error;
  }
}

TEST(Campaign, OversizedKOrFaultsAreRecordedNotFatal) {
  // More robots than nodes, or more faults than robots, must fail the job
  // as a record instead of aborting the whole process.
  const std::pair<const char*, const char*> kCases[] = {
      {R"("n": [5], "k": [6])", "k <= n"},
      {R"("n": [5], "k": [3], "faults": [10])", "faults <= k"},
  };
  for (std::size_t c = 0; c < std::size(kCases); ++c) {
    const auto& [axes, error] = kCases[c];
    SCOPED_TRACE(axes);
    const CampaignSpec spec = CampaignSpec::parse_json(
        std::string(R"({"name": "oversized", "axes": {"algorithms": ["alg4"],)"
                    R"( "adversaries": ["random"], )") +
        axes + "}}");
    ResultStore store(scratch_dir("oversized_" + std::to_string(c)));
    const CampaignOutcome outcome = run_campaign(spec, store, 1);
    EXPECT_EQ(outcome.executed, 1u);
    EXPECT_EQ(outcome.failed, 1u);
    const std::vector<TrialRecord> records = store.load();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_FALSE(records[0].ok);
    EXPECT_NE(records[0].error.find(error), std::string::npos)
        << records[0].error;
  }
}

TEST(Campaign, Alg4OutsideItsModelIsRecordedNotFatal) {
  // The parser accepts Algorithm 4 under local communication; its robots
  // then stay put, so the job records "NOT dispersed" at its 100*k budget
  // instead of aborting the process.
  const CampaignSpec spec = CampaignSpec::parse_json(R"({
    "name": "alg4-local",
    "axes": {"algorithms": ["alg4"], "comm": ["local"], "n": [8], "k": [5]}
  })");
  ResultStore store(scratch_dir("alg4_local"));
  const CampaignOutcome outcome = run_campaign(spec, store, 1);
  EXPECT_EQ(outcome.failed, 0u);
  const std::vector<TrialRecord> records = store.load();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].ok) << records[0].error;
  EXPECT_FALSE(records[0].dispersed);
  EXPECT_EQ(records[0].rounds, 100u * 5u);
  EXPECT_EQ(records[0].moves, 0u);

  // Without 1-neighborhood knowledge (dyndisp_sim --knowledge 0) likewise.
  JobSpec job = spec.expand()[0];
  job.comm = "global";
  analysis::TrialSpec trial = make_trial_spec(
      job, Registry::instance().algorithm(job.algorithm, job.seed));
  trial.options.neighborhood_knowledge = false;
  const RunResult blind = analysis::run_trial(trial, job.seed);
  EXPECT_FALSE(blind.dispersed);
  EXPECT_EQ(blind.total_moves, 0u);
}

TEST(Campaign, RunJobRecordsOneJob) {
  const std::vector<JobSpec> jobs =
      CampaignSpec::parse_json(kSmallSpec).expand();
  const TrialRecord record = run_job(jobs[1], "hash", /*record_timing=*/false);
  EXPECT_TRUE(record.ok);
  EXPECT_EQ(record.job.id(), jobs[1].id());
  EXPECT_EQ(record.spec_hash, "hash");
  EXPECT_EQ(record.wall_ms, 0.0);
  const RunResult direct = analysis::run_trial(
      make_trial_spec(jobs[1], Registry::instance().algorithm("alg4", 2)), 2);
  EXPECT_EQ(record.dispersed, direct.dispersed);
  EXPECT_EQ(record.rounds, direct.rounds);
  EXPECT_EQ(record.moves, direct.total_moves);
  EXPECT_EQ(record.memory_bits, direct.max_memory_bits);
  EXPECT_EQ(record.max_occupied, direct.max_occupied);
  EXPECT_EQ(record.crashed, direct.crashed);

  // A throwing trial is a failure record, never an escaped exception.
  JobSpec bad = jobs[0];
  bad.k = 20;  // more robots than the 12 nodes
  const TrialRecord failed = run_job(bad, "hash", /*record_timing=*/true);
  EXPECT_FALSE(failed.ok);
  EXPECT_NE(failed.error.find("k <= n"), std::string::npos) << failed.error;
  EXPECT_GE(failed.wall_ms, 0.0);
}

TEST(Campaign, RefusesStoreOfDifferentCampaign) {
  const CampaignSpec spec = CampaignSpec::parse_json(kSmallSpec);
  const std::string dir = scratch_dir("mismatch");
  {
    ResultStore store(dir);
    run_campaign(spec, store, 1);
  }
  const CampaignSpec other = CampaignSpec::parse_json(R"({
    "name": "small",
    "axes": {
      "algorithms": ["alg4"],
      "adversaries": ["random"],
      "n": [12],
      "k": [6],
      "faults": [1]
    },
    "seeds": 4
  })");
  ResultStore store(dir);
  EXPECT_THROW(run_campaign(other, store, 1), std::invalid_argument);
}

TEST(Campaign, ReportCsvRoundTrips) {
  const CampaignSpec spec = CampaignSpec::parse_json(kSmallSpec);
  const std::string dir = scratch_dir("csv");
  ResultStore store(dir);
  run_campaign(spec, store, 1);
  const auto groups = aggregate(store.load());
  const std::string csv_path = dir + "/report.csv";
  write_report_csv(csv_path, groups);
  std::ifstream in(csv_path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("algorithm"), std::string::npos);
  std::string row;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, row)));
  EXPECT_NE(row.find("alg4"), std::string::npos);
}

}  // namespace
}  // namespace dyndisp::campaign
