// Crash-fault schedules (Section VII).
//
// A crashed robot "behaves as if it has vanished from the system": it stops
// communicating, stops moving, and leaves no sensing footprint. Crashes are
// scheduled per (round, robot) and can strike either before the Communicate
// phase (the robot sends no packet that round and components may split) or
// after it (the robot took part in communication -- other robots planned
// around it -- but does not execute its move). Moves are instantaneous, so
// there is no mid-edge crash.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace dyndisp {

enum class CrashPhase {
  kBeforeCommunicate,  ///< Vanishes before packets are exchanged.
  kAfterCommunicate,   ///< Communicated, then vanishes before moving.
};

struct CrashEvent {
  Round round = 0;
  RobotId robot = kNoRobot;
  CrashPhase phase = CrashPhase::kBeforeCommunicate;
};

/// A full crash schedule for one run.
class FaultSchedule {
 public:
  FaultSchedule() = default;
  explicit FaultSchedule(std::vector<CrashEvent> events);

  /// No faults at all.
  static FaultSchedule none() { return FaultSchedule{}; }

  /// `f` distinct robots crash at uniformly random rounds in [0, horizon)
  /// with uniformly random phases. Throws std::invalid_argument when
  /// f > k or horizon == 0.
  static FaultSchedule random(std::size_t k, std::size_t f, Round horizon,
                              Rng& rng);

  /// Crash events scheduled for `round` in the given phase.
  std::vector<RobotId> crashes_at(Round round, CrashPhase phase) const;

  std::size_t fault_count() const { return events_.size(); }
  const std::vector<CrashEvent>& events() const { return events_; }

 private:
  std::vector<CrashEvent> events_;
  std::multimap<Round, CrashEvent> by_round_;
};

}  // namespace dyndisp
