// Stateless greedy rule in the local model WITH 1-neighborhood knowledge --
// the exact setting of Theorem 1. On every multiplicity node the surplus
// robots hop to a visibly empty neighbor if one exists, else toward a
// strictly less-crowded neighbor. Works on stars/cliques; provably cannot
// work in general (Theorem 1), and the path-trap bench shows it stalling.
#pragma once

#include <memory>
#include <string>

#include "sim/algorithm.h"

namespace dyndisp::baselines {

class GreedyLocalRobot final : public RobotAlgorithm {
 public:
  GreedyLocalRobot(RobotId id, std::size_t k) : id_(id), k_(k) {}

  std::unique_ptr<RobotAlgorithm> clone() const override {
    return std::make_unique<GreedyLocalRobot>(*this);
  }
  bool copy_into(RobotAlgorithm& target) const override {
    return copy_assign_into(*this, target);
  }
  Port step(const RobotView& view) override;
  void serialize(BitWriter& out) const override;
  std::string name() const override { return "greedy(local+1-nbhd)"; }
  bool requires_global_comm() const override { return false; }
  bool requires_neighborhood() const override { return true; }

 private:
  RobotId id_;
  std::size_t k_;
};

AlgorithmFactory greedy_local_factory();

}  // namespace dyndisp::baselines
