// Deterministic coordinated walk with GLOBAL communication but NO
// 1-neighborhood knowledge -- the exact setting of Theorem 2. Surplus
// robots leave their node through a pseudo-deterministic port schedule
// (a hash of robot ID and round), the strongest thing a robot can do when
// it cannot see which neighbors are occupied: pick ports obliviously and
// rely on global communication for termination detection.
//
// On static graphs this scatters (slowly). Under the clique-trap adversary
// it visits zero new nodes forever: the adversary predicts the schedule and
// rewires an edge no robot uses (the paper's Theorem 2 construction).
#pragma once

#include <memory>
#include <string>

#include "sim/algorithm.h"

namespace dyndisp::baselines {

class BlindWalkRobot final : public RobotAlgorithm {
 public:
  BlindWalkRobot(RobotId id, std::size_t k) : id_(id), k_(k) {}

  std::unique_ptr<RobotAlgorithm> clone() const override {
    return std::make_unique<BlindWalkRobot>(*this);
  }
  bool copy_into(RobotAlgorithm& target) const override {
    return copy_assign_into(*this, target);
  }
  Port step(const RobotView& view) override;
  void serialize(BitWriter& out) const override;
  std::string name() const override { return "blind-walk(global,no-1-nbhd)"; }
  bool requires_global_comm() const override { return true; }
  bool requires_neighborhood() const override { return false; }

 private:
  RobotId id_;
  std::size_t k_;
};

AlgorithmFactory blind_walk_factory();

}  // namespace dyndisp::baselines
