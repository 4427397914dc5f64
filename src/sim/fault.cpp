#include "sim/fault.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace dyndisp {

FaultSchedule::FaultSchedule(std::vector<CrashEvent> events)
    : events_(std::move(events)) {
  for (const CrashEvent& e : events_) by_round_.emplace(e.round, e);
}

FaultSchedule FaultSchedule::random(std::size_t k, std::size_t f,
                                    Round horizon, Rng& rng) {
  // Untrusted input (specs, CLI flags, repro artifacts): throw, not assert.
  if (f > k || horizon < 1)
    throw std::invalid_argument(
        "fault schedule needs faults <= k and a horizon >= 1; got faults=" +
        std::to_string(f) + " k=" + std::to_string(k) +
        " horizon=" + std::to_string(horizon));
  std::vector<RobotId> ids(k);
  std::iota(ids.begin(), ids.end(), RobotId{1});
  rng.shuffle(ids);
  std::vector<CrashEvent> events;
  events.reserve(f);
  for (std::size_t i = 0; i < f; ++i) {
    CrashEvent e;
    e.robot = ids[i];
    e.round = rng.below(horizon);
    e.phase = rng.chance(0.5) ? CrashPhase::kBeforeCommunicate
                              : CrashPhase::kAfterCommunicate;
    events.push_back(e);
  }
  return FaultSchedule(std::move(events));
}

std::vector<RobotId> FaultSchedule::crashes_at(Round round,
                                               CrashPhase phase) const {
  std::vector<RobotId> out;
  auto [lo, hi] = by_round_.equal_range(round);
  for (auto it = lo; it != hi; ++it)
    if (it->second.phase == phase) out.push_back(it->second.robot);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dyndisp
