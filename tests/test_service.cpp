// Campaign service: the worker protocol, the coordinator's multi-process
// scheduling (bitwise-identical merged stores at any worker count, crash
// recovery, shard resume, poisoned-job handling), the durable store, and
// the auto-thread manifest echo.
//
// Process-spawning cases exec the real dyndisp_campaign binary; its path
// arrives via the DYNDISP_CAMPAIGN_BIN compile definition and the cases
// skip if the binary is not built.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/scheduler.h"
#include "campaign/service/coordinator.h"
#include "campaign/service/shard.h"
#include "campaign/service/worker.h"
#include "campaign/spec.h"
#include "campaign/store.h"

namespace dyndisp::campaign {
namespace {

namespace fs = std::filesystem;
using service::CoordinatorOptions;
using service::ServiceOutcome;
using service::WorkerOptions;

/// Fresh scratch directory per test case, removed up-front so reruns are
/// clean.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("dyndisp_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string campaign_binary() {
#ifdef DYNDISP_CAMPAIGN_BIN
  return DYNDISP_CAMPAIGN_BIN;
#else
  return "";
#endif
}

bool have_binary() {
  const std::string bin = campaign_binary();
  return !bin.empty() && fs::exists(bin);
}

constexpr const char* kSpec = R"({
  "name": "service_small",
  "axes": {
    "algorithms": ["alg4", "dfs"],
    "adversaries": ["random"],
    "n": [12],
    "k": [6]
  },
  "seeds": 4
})";

std::string write_spec(const std::string& dir, const char* text = kSpec) {
  const std::string path = dir + "/spec_input.json";
  std::ofstream out(path);
  out << text;
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The single-process threads=1 reference store every coordinator result
/// must match byte for byte (timing zeroed: wall_ms is the one
/// nondeterministic field).
std::string reference_results(const CampaignSpec& spec,
                              const std::string& dir) {
  ResultStore store(dir + "/reference");
  run_campaign(spec, store, 1, nullptr, /*record_timing=*/false);
  return read_file(store.results_path());
}

CoordinatorOptions coordinator_options(std::size_t workers) {
  CoordinatorOptions opts;
  opts.workers = workers;
  opts.worker_binary = campaign_binary();
  opts.record_timing = false;
  return opts;
}

// ---------------------------------------------------------------------------
// Worker protocol (in-process: run_worker is a plain function over streams)

TEST(ServiceWorker, RunsJobsFromStreamAndAcksDurably) {
  const std::string dir = scratch_dir("svc_worker");
  const std::string spec_path = write_spec(dir);
  WorkerOptions opts;
  opts.spec_path = spec_path;
  opts.store_dir = dir + "/shard";
  opts.record_timing = false;
  std::istringstream in("0\n3\n");
  std::ostringstream out;
  EXPECT_EQ(service::run_worker(opts, in, out), 0);

  ResultStore shard(dir + "/shard");
  const std::vector<TrialRecord> records = shard.load();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].job.index, 0u);
  EXPECT_EQ(records[1].job.index, 3u);

  // Ack format: "done <index> <ok|fail> <dispersed> <rounds>".
  std::istringstream acks(out.str());
  std::string tag, okword;
  std::size_t index = 0;
  int dispersed = 0;
  std::uint64_t rounds = 0;
  acks >> tag >> index >> okword >> dispersed >> rounds;
  EXPECT_EQ(tag, "done");
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(okword, "ok");
  EXPECT_EQ(records[0].rounds, rounds);
}

TEST(ServiceWorker, RejectsOutOfRangeIndex) {
  const std::string dir = scratch_dir("svc_worker_oob");
  WorkerOptions opts;
  opts.spec_path = write_spec(dir);
  opts.store_dir = dir + "/shard";
  std::istringstream in("999\n");
  std::ostringstream out;
  EXPECT_THROW(service::run_worker(opts, in, out), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Store satellites: durable appends, atomic ordered merge

TEST(ServiceStore, DurableAppendRoundTrips) {
  const std::string dir = scratch_dir("svc_durable");
  const CampaignSpec spec = CampaignSpec::parse_json(kSpec);
  const std::vector<JobSpec> jobs = spec.expand();
  ResultStore store(dir);
  store.set_durable(true);
  TrialRecord record;
  record.job = jobs[0];
  record.spec_hash = spec.hash();
  record.rounds = 7;
  store.append(record);
  store.append(record);  // second append exercises the open handle path
  const std::vector<TrialRecord> loaded = store.load();
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].rounds, 7u);
}

TEST(ServiceStore, ReplaceAllSortsAndDedupes) {
  const std::string dir = scratch_dir("svc_replace");
  const CampaignSpec spec = CampaignSpec::parse_json(kSpec);
  const std::vector<JobSpec> jobs = spec.expand();
  ASSERT_GE(jobs.size(), 3u);

  std::vector<TrialRecord> records;
  for (const std::size_t i : {2u, 0u, 1u, 2u}) {  // out of order + duplicate
    TrialRecord r;
    r.job = jobs[i];
    r.spec_hash = spec.hash();
    r.rounds = 10 + i;
    records.push_back(r);
  }
  records[3].rounds = 99;  // the duplicate differs; first occurrence wins

  ResultStore store(dir);
  EXPECT_EQ(store.replace_all(records), 3u);
  const std::vector<TrialRecord> loaded = store.load();
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[0].job.index, 0u);
  EXPECT_EQ(loaded[1].job.index, 1u);
  EXPECT_EQ(loaded[2].job.index, 2u);
  EXPECT_EQ(loaded[2].rounds, 12u);  // not the 99 duplicate

  // The file is byte-for-byte the append serialization in job order.
  std::string expected;
  for (const TrialRecord& r : {records[1], records[2], records[0]})
    expected += record_to_jsonl(r) + "\n";
  EXPECT_EQ(read_file(store.results_path()), expected);
}

// ---------------------------------------------------------------------------
// Scheduler satellite: auto thread default echoed in the manifest

TEST(SchedulerThreads, AutoResolvesToHardwareConcurrencyAndEchoes) {
  const std::string dir = scratch_dir("svc_auto_threads");
  const CampaignSpec spec = CampaignSpec::parse_json(kSpec);
  ResultStore store(dir);
  const CampaignOutcome outcome =
      run_campaign(spec, store, /*threads=*/0, nullptr, false);
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(outcome.threads, hw == 0 ? 1u : hw);
  const std::vector<RunCounters> runs = store.run_history();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].threads, outcome.threads);
  EXPECT_EQ(runs[0].workers, 0u);  // in-process run
}

// ---------------------------------------------------------------------------
// Coordinator: bitwise-identical merged stores, crash tolerance, resume

TEST(ServiceCoordinator, MergedStoreBitwiseIdenticalAtAnyWorkerCount) {
  if (!have_binary()) GTEST_SKIP() << "dyndisp_campaign binary not built";
  const std::string dir = scratch_dir("svc_bitwise");
  const CampaignSpec spec = CampaignSpec::parse_json(kSpec);
  const std::string reference = reference_results(spec, dir);
  ASSERT_FALSE(reference.empty());

  for (const std::size_t workers : {1u, 2u, 4u}) {
    ResultStore store(dir + "/w" + std::to_string(workers));
    const ServiceOutcome outcome =
        service::run_coordinator(spec, store, coordinator_options(workers));
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.workers, workers);
    EXPECT_EQ(outcome.campaign.executed, spec.job_count());
    EXPECT_EQ(read_file(store.results_path()), reference)
        << "workers=" << workers;
    // Shards are merged away; the manifest echoes the fleet size.
    EXPECT_TRUE(service::list_shard_dirs(store.dir()).empty());
    const std::vector<RunCounters> runs = store.run_history();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].workers, workers);
  }
}

TEST(ServiceCoordinator, SigkilledWorkerIsRecoveredBitwise) {
  if (!have_binary()) GTEST_SKIP() << "dyndisp_campaign binary not built";
  const std::string dir = scratch_dir("svc_kill");
  const CampaignSpec spec = CampaignSpec::parse_json(kSpec);
  const std::string reference = reference_results(spec, dir);

  // Worker 0's first incarnation SIGKILLs itself after appending its second
  // record, before acking it: the coordinator must recover that record from
  // the shard store (not re-run the job) and finish the rest with a
  // replacement worker. One worker makes the crash deterministic: it is
  // handed every job, so it always reaches its second append (with two,
  // the other worker could drain the queue first). Multi-worker kill
  // recovery is covered by the tool_campaign_workers_kill test.
  CoordinatorOptions opts = coordinator_options(1);
  opts.kill_after = 2;
  ResultStore store(dir + "/killed");
  const ServiceOutcome outcome = service::run_coordinator(spec, store, opts);
  EXPECT_TRUE(outcome.ok());
  EXPECT_GE(outcome.worker_crashes, 1u);
  EXPECT_EQ(outcome.campaign.executed, spec.job_count());
  EXPECT_EQ(read_file(store.results_path()), reference);
}

TEST(ServiceCoordinator, ResumesLeftoverShardsWithoutRerunning) {
  if (!have_binary()) GTEST_SKIP() << "dyndisp_campaign binary not built";
  const std::string dir = scratch_dir("svc_resume");
  const CampaignSpec spec = CampaignSpec::parse_json(kSpec);
  const std::string reference = reference_results(spec, dir);

  // Simulate a killed coordinator: a shard store holding two finished jobs,
  // never merged into the root results.jsonl.
  const std::string root = dir + "/resumed";
  fs::create_directories(root);
  {
    WorkerOptions wopts;
    wopts.spec_path = write_spec(dir);
    wopts.store_dir = service::shard_dir(root, 0);
    wopts.record_timing = false;
    std::istringstream in("0\n1\n");
    std::ostringstream out;
    ASSERT_EQ(service::run_worker(wopts, in, out), 0);
  }

  ResultStore store(root);
  const ServiceOutcome outcome =
      service::run_coordinator(spec, store, coordinator_options(2));
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.campaign.skipped, 2u) << "shard jobs must not re-run";
  EXPECT_EQ(outcome.campaign.executed, spec.job_count() - 2);
  EXPECT_EQ(read_file(store.results_path()), reference);
}

TEST(ServiceCoordinator, JobThatCrashesTwiceIsPoisonedOthersComplete) {
  if (!have_binary()) GTEST_SKIP() << "dyndisp_campaign binary not built";
  const std::string dir = scratch_dir("svc_poison");
  const CampaignSpec spec = CampaignSpec::parse_json(kSpec);
  const std::vector<JobSpec> jobs = spec.expand();

  // Every worker SIGKILLs itself when handed job 1: a deterministic
  // crasher. After max_attempts (2) the coordinator drops it, finishes
  // everything else, and reports the poison.
  CoordinatorOptions opts = coordinator_options(2);
  opts.die_on_index = 1;
  ResultStore store(dir + "/poisoned");
  const ServiceOutcome outcome = service::run_coordinator(spec, store, opts);
  EXPECT_FALSE(outcome.ok());
  ASSERT_EQ(outcome.poisoned_jobs.size(), 1u);
  EXPECT_EQ(outcome.poisoned_jobs[0], jobs[1].id());
  EXPECT_GE(outcome.worker_crashes, 2u);
  EXPECT_EQ(outcome.campaign.executed, spec.job_count() - 1);
  // Every record except the poisoned job made it into the merged store.
  const std::vector<TrialRecord> records = store.load();
  EXPECT_EQ(records.size(), spec.job_count() - 1);
  for (const TrialRecord& r : records) EXPECT_NE(r.job.id(), jobs[1].id());

  // A later resume without the crasher completes the campaign.
  const ServiceOutcome healed =
      service::run_coordinator(spec, store, coordinator_options(2));
  EXPECT_TRUE(healed.ok());
  EXPECT_EQ(healed.campaign.skipped, spec.job_count() - 1);
  EXPECT_EQ(healed.campaign.executed, 1u);
  EXPECT_EQ(read_file(store.results_path()), reference_results(spec, dir));
}

}  // namespace
}  // namespace dyndisp::campaign
