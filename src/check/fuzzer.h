// The fuzz driver: generate random trial configs over everything the
// registry (or a restricted toolbox) offers, run each with the full oracle
// set, check the clean ones with the threads differential, and shrink + dump
// an artifact for every failure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "check/shrinker.h"
#include "check/trial.h"
#include "util/rng.h"

namespace dyndisp::check {

struct FuzzOptions {
  std::size_t trials = 100;
  /// Wall-clock budget in seconds; 0 = unbounded. The driver stops cleanly
  /// between trials when exceeded (CI smoke uses this).
  double budget_s = 0.0;
  std::uint64_t base_seed = 1;
  /// Largest requested node count (generated n is in [4, max_n]).
  std::size_t max_n = 24;
  /// Fraction of trials that get a random fault schedule.
  double fault_probability = 0.3;
  /// Run the threads differential on trials that pass the invariant
  /// oracles.
  bool differential = true;
  std::size_t diff_threads = 4;
  /// Shrink failures and write one repro artifact per failure here; empty =
  /// shrink but do not write artifacts.
  std::string artifact_dir;
  /// Stop after this many failures.
  std::size_t max_failures = 5;
  ShrinkOptions shrink;
  /// Progress/failure log (one line per event); null = silent.
  std::ostream* log = nullptr;
};

struct FuzzFailure {
  TrialConfig original;
  TrialConfig shrunk;
  Violation violation;  ///< Violation of the SHRUNK config.
  std::size_t captured_script_length = 0;
  std::string artifact_path;  ///< Empty when no artifact was written.
};

struct FuzzReport {
  std::size_t trials_run = 0;
  std::size_t differential_trials = 0;
  /// Rounds whose broadcast the broadcast-reference oracle compared.
  std::size_t reference_rounds = 0;
  bool budget_exhausted = false;
  std::vector<FuzzFailure> failures;

  [[nodiscard]] bool clean() const { return failures.empty(); }
};

/// Draws one random well-formed trial config. `n` is normalized to the
/// constructed adversary's actual node count (families may round the
/// requested size), so k and the placement always fit the real graph.
[[nodiscard]] TrialConfig random_trial(Rng& rng, const Toolbox& toolbox,
                         const FuzzOptions& options);

/// Runs the fuzz loop.
[[nodiscard]] FuzzReport fuzz(const FuzzOptions& options, const Toolbox& toolbox);

}  // namespace dyndisp::check
