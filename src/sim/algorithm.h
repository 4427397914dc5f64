// The robot-algorithm interface: one instance per robot, driven by the
// engine through synchronous Communicate-Compute-Move rounds.
//
// Contract (mirrors Section II):
//   * step() receives the robot's view for the round and returns the exit
//     port (kInvalidPort to stay). All computation inside step() is the
//     round's free "temporary memory".
//   * State kept on the object across step() calls is the robot's persistent
//     memory; serialize() must write ALL of it so the engine can meter the
//     bit count (Lemma 8 audits Theta(log k)).
//   * step() must be deterministic: trap adversaries dry-run copies of the
//     robots (via copy_into(), or clone() when it declines) to predict
//     moves, exactly as the paper's adversary "knows the algorithm and the
//     states until round r-1".
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <typeinfo>

#include "sim/sensing.h"
#include "util/bits.h"
#include "util/types.h"

namespace dyndisp {

class RobotAlgorithm {
 public:
  virtual ~RobotAlgorithm() = default;

  /// Deep copy including all persistent state (used by plan probes).
  virtual std::unique_ptr<RobotAlgorithm> clone() const = 0;

  /// Refills `target` in place so it behaves exactly like clone() would:
  /// same persistent state (serialize() byte-equal) and the same step()
  /// outcomes from here on. Returns false -- leaving `target` untouched --
  /// when it cannot, e.g. because `target` is a different concrete type;
  /// the caller then falls back to clone(). Plan probes recycle one robot
  /// arena per engine through this, so a probe copies state instead of
  /// allocating k fresh robots. The default always declines.
  virtual bool copy_into(RobotAlgorithm& target) const {
    (void)target;
    return false;
  }

  /// Compute phase: decide the exit port for this round (kInvalidPort: stay).
  virtual Port step(const RobotView& view) = 0;

  /// Serializes the persistent (between-round) state for memory metering.
  virtual void serialize(BitWriter& out) const = 0;

  virtual std::string name() const = 0;

  /// Model requirements; the engine rejects mismatched configurations unless
  /// explicitly asked to run an algorithm outside its comfort zone (that is
  /// exactly what the impossibility benches do).
  virtual bool requires_global_comm() const = 0;
  virtual bool requires_neighborhood() const = 0;

  /// Which optional RobotView fields step() reads (see ViewNeeds). The
  /// engine's struct-of-arrays round loop skips assembling fields that no
  /// robot of the run declares; an algorithm overriding this promises its
  /// step() never reads a disclaimed field. The all-true default keeps
  /// every unported algorithm on full views.
  virtual ViewNeeds view_needs() const { return ViewNeeds{}; }
};

/// copy_into() for an algorithm whose persistent state is exactly its
/// copy-assignable members: copy-assigns `self` over `target` when both
/// have the concrete type T.
template <class T>
bool copy_assign_into(const T& self, RobotAlgorithm& target) {
  if (typeid(target) != typeid(T)) return false;
  static_cast<T&>(target) = self;
  return true;
}

/// Creates the algorithm instance for robot `id` out of `k` robots.
using AlgorithmFactory =
    std::function<std::unique_ptr<RobotAlgorithm>(RobotId id, std::size_t k)>;

}  // namespace dyndisp
