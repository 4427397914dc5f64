// Byzantine robots -- the paper's third future-work direction, explored as
// a NEGATIVE result: Algorithm 4 is built on every robot trusting every
// packet, and a single liar can deadlock it. This module injects lies at
// the packet layer (and optionally erratic movement) so the failure modes
// can be measured; see bench_byzantine and EXPERIMENTS.md.
//
// A liar interferes only when it is its node's broadcaster (the smallest ID
// on the node -- exactly when the paper's protocol hands it the megaphone).
// Supported lies:
//   * kHideMultiplicity: the packet claims count = 1 and lists only the
//     liar. A multiplicity node that never looks like one is never chosen
//     as a spanning-tree root, so its surplus robots are never slid:
//     dispersion deadlocks while the liar sits on a crowded node.
//   * kHideEmptyNeighbors: the packet reports degree = |occupied neighbors|,
//     making the node ineligible for LeafNodeSet. Components whose only
//     frontier runs through the liar lose all their root paths.
//   * kErraticMoves: the liar additionally ignores the protocol and walks
//     through a pseudo-random port every round.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "robots/configuration.h"
#include "sim/packet_arena.h"
#include "util/types.h"

namespace dyndisp {

enum class ByzantineLie {
  kHideMultiplicity,
  kHideEmptyNeighbors,
  kErraticMoves,
};

class ByzantineModel {
 public:
  ByzantineModel(std::set<RobotId> liars, ByzantineLie lie);

  const std::set<RobotId>& liars() const { return liars_; }
  ByzantineLie lie() const { return lie_; }
  std::string lie_name() const;

  /// Corrupts the round's packet set in place. Packets broadcast by honest
  /// robots are untouched; packets whose sender is a liar are rewritten per
  /// the configured lie. How OTHER packets describe the liar's node stays
  /// truthful, since 1-neighborhood *sensing* of occupancy cannot be faked
  /// -- only the packet contents can (counts/IDs travel in packets). A
  /// liar's pool slice starts with the liar itself (robot lists ascend and
  /// the sender is the minimum), so hiding multiplicity is a range shrink,
  /// never a pool rewrite.
  void tamper(PacketArena& packets) const;

  /// Movement override for kErraticMoves: the liar picks a pseudo-random
  /// port (deterministic in (id, round)); other robots keep their plan.
  Port override_move(RobotId id, Port planned, std::size_t degree,
                     Round round) const;

 private:
  std::set<RobotId> liars_;
  ByzantineLie lie_;
};

}  // namespace dyndisp
