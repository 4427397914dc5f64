// Differential oracle: the same trial executed two independent ways must
// produce bitwise-identical results. The one axis diffed is threads: the
// engine's parallel compute phase (threads = N) against the fully serial
// engine (threads = 1). The engine claims bitwise identity at any thread
// count; this is the oracle that keeps that claim honest.
//
// Construction needs no diff: dyndisp_sim, campaigns and the harness all
// build a trial through campaign::make_trial_spec, so there is no second
// construction to drift. The engine's cross-round reuse paths need no
// second engine either: the in-run broadcast-reference oracle
// (check/oracles.h) compares every round's published broadcast with a
// fresh make_all_packets.
//
// "Bitwise identical" means digest_run() equality: every RunResult scalar,
// the final configuration, and the per-round occupied counts.
#pragma once

#include <cstddef>
#include <string>

#include "check/trial.h"

namespace dyndisp::check {

struct DiffReport {
  bool ok = true;
  std::string detail;  ///< Both legs' fingerprints when !ok.
};

/// Runs `config` at threads=1 and threads=`threads` through the identical
/// construction path and compares digests.
[[nodiscard]] DiffReport diff_threads(const TrialConfig& config,
                                      const Toolbox& toolbox,
                                      std::size_t threads);

}  // namespace dyndisp::check
