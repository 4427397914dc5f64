// The shrinker: given a failing trial, produce the smallest trial it can
// that still fails the SAME oracle, as a self-contained scripted replay.
//
// Three stages, each accepting a candidate only if re-running it yields a
// violation with the same oracle key:
//   1. scalar shrink -- n, then k, then the fault count, each by
//      halve-then-decrement (dependent fields are clamped so every
//      candidate is well-formed);
//   2. script capture -- re-run the minimized config with its adversary
//      wrapped in a recorder, turning the (possibly randomized, possibly
//      plan-probing) adversary into an explicit graph sequence;
//   3. script shrink -- truncate the tail (ScriptedAdversary repeats the
//      last graph forever, so every non-empty prefix is a complete
//      execution), then drop graphs from the front (first straight to the
//      violating round's graph, then one at a time, pulling a late
//      violation toward round 0), then tighten max_rounds.
//
// Every run is deterministic, so "same oracle" is a faithful notion of
// "same bug" for in-engine violations at a specific round.
#pragma once

#include <cstddef>

#include "check/trial.h"

namespace dyndisp::check {

struct ShrinkOptions {
  /// Upper bound on candidate re-runs across all stages.
  std::size_t max_attempts = 400;
};

struct ShrinkResult {
  TrialConfig config;   ///< Minimized, scripted when capture succeeded.
  Violation violation;  ///< The minimized config's violation.
  /// Script length right after capture, before script shrinking (0 when
  /// capture was skipped or failed); lets callers assert the script
  /// actually got shorter.
  std::size_t captured_script_length = 0;
  std::size_t attempts = 0;  ///< Candidate re-runs performed.
};

/// Shrinks `failing` (which violated `violation` under `toolbox`). The
/// returned config always still violates the same oracle -- when no
/// reduction helps, it is the input config unchanged.
[[nodiscard]] ShrinkResult shrink(const TrialConfig& failing, const Violation& violation,
                    const Toolbox& toolbox, const ShrinkOptions& options = {});

}  // namespace dyndisp::check
