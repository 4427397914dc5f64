// Invariant oracles: the paper's lemmas and theorems turned into per-round
// engine hooks and post-run checks.
//
// Which oracles apply depends on the trial (an OracleProfile): graph-level
// safety (the adversary must emit a valid 1-interval connected round graph)
// holds for EVERY trial and is enforced by the engine itself as the
// "round-graph" oracle; the lemma oracles only bind for algorithms that
// claim Algorithm 4's guarantees, under the model the paper proves them in
// (synchronous, global communication). Baseline walkers are allowed to
// stall, regress, and fail to disperse -- for them only safety is checked.
//
// Oracle keys (stable; shrinker matching and artifacts use them):
//   round-graph       engine graph validation (dynamic/validator.h)
//   occupied-monotone Lemma 6 corollary, in-engine, fault-free only
//   progress          Lemma 7, in-engine (>=1 newly occupied node per round
//                     while an undispersed robot exists), fault-free only
//   memory            Lemma 8, in-engine (peak bits <= ceil(log2(k+1)))
//   dispersal         the algorithm's basic liveness claim, post-run
//   round-bound       Theorem 4 (rounds <= k), post-run, fault-free only
//   faulty-round-bound Theorem 5 (rounds <= k-f+slack), post-run, faulty
//   broadcast-reference the arena assembler equals an independent rebuild,
//                     in-engine: each round's published broadcast matches
//                     make_all_packets on that round's graph and
//                     start-of-round configuration (global communication,
//                     no Byzantine liars)
#pragma once

#include <cstddef>
#include <memory>

#include "check/trial.h"
#include "sim/engine.h"

namespace dyndisp::check {

/// Which oracles bind for one trial.
struct OracleProfile {
  bool occupied_monotone = false;
  bool progress = false;
  bool memory = false;
  bool dispersal = false;
  bool round_bound = false;
  bool faulty_round_bound = false;
};

/// Derives the profile: lemma oracles require claims_lemmas plus a model
/// the paper proves them in (comm "default"/"global"); the fault-free
/// oracles additionally require faults == 0.
OracleProfile oracle_profile(const TrialConfig& config, bool claims_lemmas);

/// Builds the per-round engine observer for the profile's in-engine
/// oracles (occupied-monotone, progress, memory). Returns a null function
/// when none of them bind, so the engine hot path stays untouched.
RoundObserver make_invariant_checker(const OracleProfile& profile,
                                     std::size_t k);

/// Installs the broadcast-reference oracle (see the key table above) into
/// `options.on_round`: every executed round's published broadcast and its
/// metered wire bits must equal a fresh make_all_packets(snapshot.graph,
/// snapshot.before, neighborhood) and its bit total, crash rounds
/// included. Chains onto any observer already installed (which runs
/// after the comparison). Returns null (and installs nothing) unless
/// communication is global with no Byzantine model; otherwise the count
/// of rounds compared, read after the run.
std::shared_ptr<const std::size_t> install_broadcast_reference(
    EngineOptions& options);

/// Runs the profile's post-run oracles (dispersal, round-bound,
/// faulty-round-bound) against a completed result, reusing the
/// analysis/verify checkers. nullopt when all pass.
std::optional<Violation> post_run_violation(const OracleProfile& profile,
                                            const RunResult& result);

}  // namespace dyndisp::check
