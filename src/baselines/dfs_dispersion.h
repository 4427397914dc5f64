// Local-model DFS dispersion -- the canonical static-graph baseline
// (Augustine & Moses Jr. 2018 / Kshemkalyani & Ali 2019 style).
//
// The unsettled robots travel as a group performing a DFS of the anonymous
// port-labeled graph; the first unsettled robot to reach a free node settles
// there and serves as that node's marker, storing the DFS parent port and a
// rotor over the untried ports. Arriving groups read the settled robot's
// state through local (same-node) communication and either explore the next
// untried port or backtrack through the parent.
//
// On STATIC graphs from a rooted configuration this disperses in O(m)
// rounds with O(log(max(k, Delta))) bits per robot. On dynamic graphs the
// DFS tree it grows refers to edges that stop existing, which is exactly
// the failure mode the paper's Section I highlights; the impossibility and
// baseline-comparison benches quantify it.
#pragma once

#include <memory>
#include <string>

#include "sim/algorithm.h"

namespace dyndisp::baselines {

class DfsDispersionRobot final : public RobotAlgorithm {
 public:
  DfsDispersionRobot(RobotId id, std::size_t k);

  std::unique_ptr<RobotAlgorithm> clone() const override;
  bool copy_into(RobotAlgorithm& target) const override {
    return copy_assign_into(*this, target);
  }
  Port step(const RobotView& view) override;
  void serialize(BitWriter& out) const override;
  std::string name() const override { return "DFS-dispersion(local,static)"; }
  bool requires_global_comm() const override { return false; }
  bool requires_neighborhood() const override { return false; }

  bool settled() const { return settled_; }

  /// State layout shared with peers (see serialize): id, settled, mode,
  /// parent_port, last_tried. Ports use a fixed 16-bit field.
  struct PeerState {
    RobotId id = kNoRobot;
    bool settled = false;
    bool backtracking = false;
    Port parent_port = kInvalidPort;
    Port last_tried = kInvalidPort;
  };
  static PeerState decode(const std::vector<std::uint8_t>& bytes,
                          std::size_t bit_count_hint, std::size_t k);

 private:
  RobotId id_;
  std::size_t k_;
  bool settled_ = false;
  bool backtracking_ = false;      // group mode of this robot
  Port parent_port_ = kInvalidPort;  // settled: DFS parent port (0 at root)
  Port last_tried_ = kInvalidPort;   // settled: rotor over child ports
};

AlgorithmFactory dfs_dispersion_factory();

}  // namespace dyndisp::baselines
