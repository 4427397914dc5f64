#include "campaign/scheduler.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <vector>

#include "campaign/registry.h"
#include "util/parallel.h"

namespace dyndisp::campaign {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             // NOLINTNEXTLINE-dyndisp(determinism-wallclock): feeds only
             // wall_ms, which --no-timing zeroes in records before any byte
             // comparison; never part of a result digest.
             std::chrono::steady_clock::now() - start)
      .count();
}

TrialRecord run_job(const JobSpec& job, const std::string& spec_hash,
                    bool record_timing) {
  TrialRecord record;
  record.job = job;
  record.spec_hash = spec_hash;
  // NOLINTNEXTLINE-dyndisp(determinism-wallclock): per-job wall_ms only;
  // record_timing=false (--no-timing) zeroes it for byte-exact compares.
  const auto start = std::chrono::steady_clock::now();
  try {
    const analysis::TrialSpec trial = make_trial_spec(
        job, Registry::instance().algorithm(job.algorithm, job.seed));
    const RunResult result = analysis::run_trial(trial, job.seed);
    record.dispersed = result.dispersed;
    record.rounds = result.rounds;
    record.moves = result.total_moves;
    record.memory_bits = result.max_memory_bits;
    record.max_occupied = result.max_occupied;
    record.crashed = result.crashed;
  } catch (const std::exception& e) {
    record.ok = false;
    record.error = e.what();
  }
  record.wall_ms = record_timing ? ms_since(start) : 0.0;
  return record;
}

std::size_t resolve_auto_threads(std::size_t threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

CampaignOutcome run_campaign(const CampaignSpec& spec, ResultStore& store,
                             std::size_t threads, std::ostream* progress,
                             bool record_timing) {
  threads = resolve_auto_threads(threads);
  // NOLINTNEXTLINE-dyndisp(determinism-wallclock): campaign wall_ms is
  // reporting-only metadata (manifest run counters), not replayable output.
  const auto campaign_start = std::chrono::steady_clock::now();
  const std::string spec_hash = spec.hash();
  const std::vector<JobSpec> jobs = spec.expand();

  // Resume: every job whose id already has a record is skipped. Records
  // carrying a different spec hash mean the directory belongs to another
  // campaign -- refuse rather than silently mixing result sets.
  //
  // Determinism audit (dyndisp_lint determinism-unordered-iter): `done` is
  // hash-ordered but membership-only -- it is probed with count() and never
  // iterated, so no output order can depend on it. The pending list below
  // preserves the spec expansion's deterministic job order.
  std::unordered_set<std::string> done;
  for (const TrialRecord& record : store.load()) {
    if (record.spec_hash != spec_hash)
      throw std::invalid_argument(
          "result store " + store.dir() + " holds records of a different "
          "campaign (spec hash " + record.spec_hash + " != " + spec_hash +
          ")");
    done.insert(record.job.id());
  }

  std::vector<const JobSpec*> pending;
  pending.reserve(jobs.size());
  for (const JobSpec& job : jobs)
    if (!done.count(job.id())) pending.push_back(&job);

  CampaignOutcome outcome;
  outcome.total = jobs.size();
  outcome.skipped = jobs.size() - pending.size();

  store.initialize(spec);

  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> reported{0};
  std::mutex progress_mu;

  // Jobs fan out through ThreadPool::for_each directly, never parallel_for:
  // its serial cutoff sizes the engine's O(1)-per-index bodies, and would
  // run a campaign of fewer than 192 whole trials on one lane.
  ThreadPool pool(threads);
  pool.for_each(pending.size(), [&](std::size_t i) {
    const JobSpec& job = *pending[i];
    const TrialRecord record = run_job(job, spec_hash, record_timing);
    if (!record.ok) failed.fetch_add(1, std::memory_order_relaxed);
    store.append(record);
    // Progress is monotonic: the counter only grows, and each line is
    // emitted under the lock with the value it claimed.
    if (progress != nullptr) {
      std::lock_guard<std::mutex> lock(progress_mu);
      const std::size_t n = reported.fetch_add(1) + 1;
      // Count against the current expansion only: `done` may hold records
      // outside it (the spec hash ignores the seed count, so a store built
      // with more seeds is a valid resume target).
      (*progress) << "[" << outcome.skipped + n << "/" << jobs.size() << "] "
                  << job.id()
                  << (record.ok
                          ? (record.dispersed ? "  dispersed in " +
                                                    std::to_string(record.rounds) +
                                                    " rounds"
                                              : "  NOT dispersed (" +
                                                    std::to_string(record.rounds) +
                                                    " rounds)")
                          : "  FAILED: " + record.error)
                  << "\n";
      progress->flush();
    }
  });

  outcome.executed = pending.size();
  outcome.failed = failed.load();
  outcome.completed = outcome.skipped + outcome.executed;
  outcome.wall_ms = ms_since(campaign_start);
  outcome.threads = threads;

  RunCounters counters;
  counters.executed = outcome.executed;
  counters.skipped = outcome.skipped;
  counters.failed = outcome.failed;
  counters.wall_ms = outcome.wall_ms;
  counters.threads = threads;
  store.record_run(spec, outcome.total, outcome.completed, counters);
  return outcome;
}

}  // namespace dyndisp::campaign
