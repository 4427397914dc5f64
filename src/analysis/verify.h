// Post-hoc verifiers tying run results back to the paper's lemmas.
// Each check returns an empty string on success, else a human-readable
// description of the first violation (gtest-friendly).
#pragma once

#include <cstddef>
#include <string>

#include "sim/engine.h"

namespace dyndisp::analysis {

/// Lemma 7: with Algorithm 4, fault-free, the number of occupied nodes
/// grows by at least one every round until dispersion. Requires the run to
/// have been recorded with record_progress.
std::string check_progress_every_round(const RunResult& result);

/// Lemma 6 corollary: the occupied-node count never decreases (fault-free).
std::string check_occupied_monotone(const RunResult& result);

/// Theorem 4: the run dispersed within k - initial_occupied + 1 rounds --
/// the sharp bound Lemma 7's one-new-node-per-round progress gives, never
/// looser than the theorem's rounds <= k.
std::string check_round_bound(const RunResult& result);

/// Lemma 8: persistent memory of every robot stayed within
/// ceil(log2(k+1)) + slack bits.
std::string check_memory_bound(const RunResult& result, std::size_t slack = 0);

/// Theorem 5: with f crashes, dispersion within k - f rounds + slack, and
/// all alive robots are on distinct nodes.
std::string check_faulty_round_bound(const RunResult& result,
                                     std::size_t slack = 1);

}  // namespace dyndisp::analysis
