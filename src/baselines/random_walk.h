// Randomized scattering baseline: every surplus robot (any robot that is
// not the smallest ID on its node) walks across a uniformly random port.
// Eventually disperses on static connected graphs; the Theorem 3 remark
// notes the Omega(k) dynamic lower bound applies to randomized algorithms
// too, which the lower-bound bench demonstrates on this walker.
//
// The PRNG state is persistent robot memory and is metered as such -- a
// deliberate contrast with Algorithm 4's log k bits.
#pragma once

#include <memory>
#include <string>

#include "sim/algorithm.h"
#include "util/rng.h"

namespace dyndisp::baselines {

class RandomWalkRobot final : public RobotAlgorithm {
 public:
  RandomWalkRobot(RobotId id, std::size_t k, std::uint64_t seed);

  std::unique_ptr<RobotAlgorithm> clone() const override {
    return std::make_unique<RandomWalkRobot>(*this);
  }
  bool copy_into(RobotAlgorithm& target) const override {
    return copy_assign_into(*this, target);
  }
  Port step(const RobotView& view) override;
  void serialize(BitWriter& out) const override;
  std::string name() const override { return "random-walk"; }
  bool requires_global_comm() const override { return false; }
  bool requires_neighborhood() const override { return false; }

 private:
  RobotId id_;
  std::size_t k_;
  Rng rng_;
};

AlgorithmFactory random_walk_factory(std::uint64_t seed);

}  // namespace dyndisp::baselines
