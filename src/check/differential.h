// Differential oracles: the same trial executed two independent ways must
// produce bitwise-identical results.
//
// Two axes are diffed:
//   * threads      -- the engine's parallel compute phase (threads = N)
//                     against the fully serial engine (threads = 1). PR 1
//                     claims bitwise identity at any thread count; this is
//                     the oracle that keeps that claim honest.
//   * construction -- the campaign path (campaign::make_trial_spec +
//                     analysis::run_trial) against a literal replication of
//                     the dyndisp_sim driver's construction. The registry
//                     exists so both resolve a name identically; this
//                     catches the two paths drifting apart (seed streams,
//                     option defaults, placement parameters).
//
// The engine's cross-round reuse paths need no second engine: the in-run
// broadcast-reference oracle (check/oracles.h) compares every round's
// published broadcast with a fresh make_all_packets.
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
[[nodiscard]] DiffReport diff_threads(const TrialConfig& config, const Toolbox& toolbox,
                        std::size_t threads);

/// Runs `config` once through the campaign spec path and once through a
/// replica of dyndisp_sim's construction and compares digests. Only valid
/// for configs whose every name resolves through the shared registry (no
/// toolbox extensions, no script).
[[nodiscard]] DiffReport diff_construction(const TrialConfig& config);

}  // namespace dyndisp::check
