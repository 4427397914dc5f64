// The campaign scheduler: expands a spec into its job list, subtracts the
// jobs already present in the result store (resume), and fans the rest over
// the util/parallel.h ThreadPool. Each job is isolated -- a throwing trial
// produces a failure record instead of aborting the campaign -- and progress
// is reported monotonically as jobs complete. Aggregate results are a pure
// function of the record set (see store.h), so a campaign run at any thread
// count produces the identical report.
#pragma once

#include <chrono>
#include <cstddef>
#include <ostream>
#include <string>

#include "campaign/spec.h"
#include "campaign/store.h"

namespace dyndisp::campaign {

/// Outcome of one run_campaign invocation. `completed` counts all records in
/// the store afterwards (executed + previously present).
struct CampaignOutcome {
  std::size_t total = 0;     ///< Jobs in the spec's expansion.
  std::size_t executed = 0;  ///< Trials run by this invocation.
  std::size_t skipped = 0;   ///< Jobs already in the store (resume).
  std::size_t failed = 0;    ///< Executed trials that threw.
  std::size_t completed = 0;
  double wall_ms = 0.0;      ///< Wall time of this invocation only.
  std::size_t threads = 0;   ///< Worker lanes actually used (auto resolved).
};

/// Milliseconds of wall time since `start`. Feeds only the reporting
/// fields (a record's wall_ms, a run's manifest counters), never a result.
double ms_since(std::chrono::steady_clock::time_point start);

/// Runs one job to its record: builds it with make_trial_spec (the
/// algorithm resolved from the registry for the job's own seed), runs it,
/// and copies the result fields. A trial that throws becomes a record with
/// ok = false and the message, never an escaped exception. wall_ms is the
/// job's wall time, or 0 when `record_timing` is false (--no-timing). The
/// in-process scheduler and the service worker both run jobs through it.
TrialRecord run_job(const JobSpec& job, const std::string& spec_hash,
                    bool record_timing);

/// Worker-lane count for `threads == 0` ("auto"): the machine's hardware
/// concurrency, with a floor of 1 when it cannot be determined. Shared by
/// the in-process scheduler and the service coordinator's process fleet.
std::size_t resolve_auto_threads(std::size_t threads);

/// Runs (or resumes) `spec` against `store` with `threads` worker lanes;
/// `threads == 0` means auto (hardware concurrency), and the resolved value
/// is echoed in the manifest's run counters so a stored run is reproducible.
/// Throws std::invalid_argument if the store holds records of a different
/// campaign (spec-hash mismatch). Writes the spec copy and the manifest;
/// when `progress` is non-null, one line per completed job is streamed to it.
///
/// `record_timing = false` zeroes the per-record wall_ms field -- the one
/// nondeterministic value in results.jsonl -- so two invocations of the
/// same spec+seed produce byte-identical record lines (line ORDER still
/// depends on the thread count; compare sorted, or run with threads = 1).
/// The manifest's per-invocation counters keep real wall times either way.
CampaignOutcome run_campaign(const CampaignSpec& spec, ResultStore& store,
                             std::size_t threads,
                             std::ostream* progress = nullptr,
                             bool record_timing = true);

}  // namespace dyndisp::campaign
