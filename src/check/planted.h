// Planted bugs: deliberately broken components used to prove the harness
// catches what it claims to catch. Each planted_toolbox() restricts the
// fuzzable pool to the broken component, so `dyndisp_check fuzz --plant X`
// (and tests/test_check.cpp) exercise it on every trial.
//
// Plants:
//   disconnect -- an adversary that behaves like the random adversary until
//                 round 1, then emits a two-component graph every round
//                 (ports stay valid; only 1-interval connectivity breaks).
//                 The engine's "round-graph" oracle must catch it at the
//                 exact round, and the shrinker must script it down.
//   lazy       -- an Algorithm 4 wrapper whose robots all stop moving from
//                 round 3 on, while still claiming the paper's guarantees.
//                 The in-engine "progress" oracle (Lemma 7) must fire at
//                 round 3 whenever the run is not yet dispersed.
#pragma once

#include <string>

#include "check/trial.h"

namespace dyndisp::check {

/// Names the planted components inject under.
inline constexpr const char* kPlantedDisconnectAdversary =
    "planted-disconnect";
inline constexpr const char* kPlantedLazyAlgorithm = "planted-lazy";

/// Round from which the disconnect plant splits the graph.
inline constexpr Round kDisconnectRound = 1;
/// Round from which the lazy plant's robots refuse to move.
inline constexpr Round kLazyRound = 3;

/// Builds a toolbox with the named plant ("disconnect" or "lazy")
/// registered and the corresponding fuzz pool restricted to it. Throws
/// std::invalid_argument on an unknown plant name.
Toolbox planted_toolbox(const std::string& plant);

}  // namespace dyndisp::check
