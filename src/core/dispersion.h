// Algorithm 4, Dispersion_Dynamic: the paper's O(k)-round, Theta(log k)-bit
// dispersion algorithm for 1-interval connected dynamic graphs under global
// communication with 1-neighborhood knowledge (Theorems 4 and 5).
//
// Per round each robot: broadcasts/receives info packets, rebuilds its
// connected component (Algorithm 1), the component spanning tree
// (Algorithm 2) and the disjoint root paths (Algorithm 3), derives the
// shared sliding plan, and moves if it is a designated mover. Everything is
// recomputed from the round's packets, so the only state carried across
// rounds -- and hence the only *metered* memory -- is the robot's own
// ceil(log2 k)-bit ID. This also makes the algorithm natively crash-fault
// tolerant (Section VII): vanished robots simply stop contributing packets,
// components re-form, and previously occupied nodes that a crash emptied
// are re-fillable empty nodes.
#pragma once

#include <memory>
#include <string>

#include "core/planner.h"
#include "sim/algorithm.h"

namespace dyndisp::core {

class DispersionRobot final : public RobotAlgorithm {
 public:
  /// `cache` may be shared across all robots of a run (exact memoization of
  /// the per-round plan) or null for the faithful per-robot mode. `config`
  /// selects design variants for ablations (defaults: the paper's
  /// Algorithm 4).
  DispersionRobot(RobotId id, std::size_t k,
                  std::shared_ptr<PlanCache> cache = nullptr,
                  PlannerConfig config = {});

  std::unique_ptr<RobotAlgorithm> clone() const override;
  bool copy_into(RobotAlgorithm& target) const override;
  Port step(const RobotView& view) override;
  void serialize(BitWriter& out) const override;
  std::string name() const override { return "Dispersion_Dynamic(Alg4)"; }
  bool requires_global_comm() const override { return true; }
  bool requires_neighborhood() const override { return true; }

  /// step() reads only the packet broadcast (with its reuse hints), the
  /// node degree, and the empty-port list; it never touches the co-located
  /// robot list, exchanged states, or per-neighbor robot lists -- Algorithm 4
  /// derives everything from the packets. Declaring that lets the engine's
  /// struct-of-arrays loop skip assembling those fields for all k robots.
  ViewNeeds view_needs() const override {
    ViewNeeds needs;
    needs.colocated = false;
    needs.colocated_states = false;
    needs.occupied_neighbors = false;
    needs.empty_ports = true;
    return needs;
  }

 private:
  RobotId id_;        // persistent: the robot's ceil(log2 k)-bit identity
  std::size_t k_;     // model parameter (IDs range over [1, k]); not state
  // NOLINTNEXTLINE-dyndisp(metering-serialize-fields): shared memoization
  // of a pure function of the round's packets -- an exact simulator-level
  // optimization (tested against the faithful mode), not robot memory.
  std::shared_ptr<PlanCache> cache_;
  // NOLINTNEXTLINE-dyndisp(metering-serialize-fields): ablation design
  // knob fixed at construction; a compile-time choice, not mutable state.
  PlannerConfig config_;
};

/// Factory for the faithful mode: every robot independently recomputes the
/// round plan from the packets (the literal Algorithm 4).
AlgorithmFactory dispersion_factory();

/// Factory for the memoized mode: one shared PlanCache per run computes the
/// plan once per distinct packet set. Identical behaviour (tested), ~k times
/// less work per round.
AlgorithmFactory dispersion_factory_memoized();

/// Factory with explicit design knobs (BFS trees, path caps) for ablations.
AlgorithmFactory dispersion_factory_with_config(PlannerConfig config,
                                                bool memoized = true);

}  // namespace dyndisp::core
