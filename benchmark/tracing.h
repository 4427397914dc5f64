// Outside-in spans for the benchmark's traced repetition.
//
// The engine is timed only through the two interfaces it calls into: the
// Adversary (dynamic layer; plan probes reach the sim layer's dry run) and
// each robot's RobotAlgorithm::step (core layer). Two decorators forward
// every virtual to the real object and report to one RoundTracer, which
// partitions the wall time of Engine::run() into per-round spans:
//
//   adversary  first adversary call of round r .. the call that settles G_r
//              (next_graph_into returns, or same_as_last answers true);
//              plan probes nested in it are kept apart
//   pre-step   adversary return .. first robot step (validation, broadcast,
//              view fill)
//   miss       the step that paid the round's PlanCache miss (Algorithms
//              1-3 plus the slide plan), when the round missed
//   step       the rest of the step span
//   post-step  last step .. next round's first adversary call, or run end
//              (move, state refresh, metering)
//
// Clock reads are per round, not per step. On one lane the first step of a
// round is the one that misses (every robot reads the same broadcast) and
// the last one is the k-th (synchronous activation, no faults, so every
// alive robot steps once per round). On several lanes ThreadPool runs lane
// c over the contiguous chunk [c*k/L, (c+1)*k/L) in ascending order, so only
// the first and last robot of each chunk read the clock; the chunk-first
// steps all wait on the one PlanCache miss, and the longest of them is the
// miss. Probe clones are the bare robots: TimedRobot::clone() does not wrap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/planner.h"
#include "dynamic/dynamic_graph.h"
#include "sim/algorithm.h"

namespace dyndisp::bench {

/// One executed round as seen from outside the engine, in nanoseconds.
struct RoundSpan {
  std::uint64_t adversary_ns = 0;  ///< Includes probe_ns.
  std::uint64_t probe_ns = 0;
  std::uint64_t probe_calls = 0;
  std::uint64_t pre_step_ns = 0;
  std::uint64_t miss_ns = 0;
  std::uint64_t step_ns = 0;
  std::uint64_t post_step_ns = 0;
  bool graph_reused = false;  ///< same_as_last answered true.
  bool plan_missed = false;   ///< The PlanCache missed during the steps.

  std::uint64_t wall_ns() const {
    return adversary_ns + pre_step_ns + miss_ns + step_ns + post_step_ns;
  }
};

class RoundTracer {
 public:
  /// `robots` is k; `lanes` the engine's thread count. `cache` is the
  /// PlanCache every traced robot shares (read once per round, never per
  /// step: its counters sit behind a mutex).
  RoundTracer(std::size_t robots, std::size_t lanes,
              std::shared_ptr<const core::PlanCache> cache);

  RoundTracer(const RoundTracer&) = delete;
  RoundTracer& operator=(const RoundTracer&) = delete;

  /// Bracket Engine::run(); hooks outside the bracket record nothing.
  void begin_run();
  void end_run();

  /// Every adversary call made from the round loop enters here first.
  void adversary_enter();
  /// Marks the call that settled this round's graph.
  void adversary_settled(bool reused);
  /// Wraps the engine's dry-run callback so probe time is kept apart.
  PlanProbe wrap_probe(PlanProbe probe);

  /// Runs `robot.step(view)` for robot slot `slot` (id - 1) under the
  /// round's step clock.
  Port step(RobotAlgorithm& robot, std::size_t slot, const RobotView& view);

  const std::vector<RoundSpan>& rounds() const { return rounds_; }
  /// run() entry to round 0's first adversary call (initial state
  /// serialization), or to run end when no round executed.
  std::uint64_t lead_in_ns() const { return lead_in_ns_; }
  std::uint64_t run_ns() const { return run_end_ - run_start_; }

 private:
  /// kBetween: the last round's steps are done (or the run just began), so
  /// the next adversary call opens a round.
  enum class State { kIdle, kBetween, kAdversary, kSteps };
  struct Slot {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
  };

  /// Fills the open round's step-side spans; several lanes first fold the
  /// chunk-edge slots into the first start, last end and longest step.
  void close_steps();

  std::size_t robots_;
  std::size_t lanes_;
  std::shared_ptr<const core::PlanCache> cache_;
  State state_ = State::kIdle;
  std::vector<RoundSpan> rounds_;
  std::uint64_t run_start_ = 0;
  std::uint64_t run_end_ = 0;
  std::uint64_t lead_in_ns_ = 0;
  std::uint64_t adversary_start_ = 0;
  std::uint64_t adversary_end_ = 0;
  std::size_t misses_before_ = 0;
  // One lane: the round's step clock.
  std::size_t steps_ = 0;
  std::uint64_t first_start_ = 0;
  std::uint64_t first_end_ = 0;
  std::uint64_t last_end_ = 0;
  // Several lanes: the robots that start or end a lane's chunk, and a slot
  // per robot that only those write (each from its own lane).
  std::vector<std::size_t> edges_;
  std::vector<bool> is_edge_;
  std::vector<Slot> slots_;
};

/// Forwards every Adversary virtual to `inner`, reporting round-loop calls
/// to the tracer.
class TimedAdversary final : public Adversary {
 public:
  TimedAdversary(std::unique_ptr<Adversary> inner, RoundTracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  std::size_t node_count() const override { return inner_->node_count(); }
  Graph next_graph(Round r, const Configuration& conf) override;
  void next_graph_into(Round r, const Configuration& conf,
                       Graph& out) override;
  void set_thread_pool(ThreadPool* pool) override {
    inner_->set_thread_pool(pool);
  }
  bool same_as_last(Round r, const Configuration& conf) const override;
  bool wants_plan_probe() const override;
  void set_plan_probe(PlanProbe probe) override;

 private:
  std::unique_ptr<Adversary> inner_;
  RoundTracer& tracer_;
};

/// Forwards every RobotAlgorithm virtual to `inner`; step() runs under the
/// tracer's step clock.
class TimedRobot final : public RobotAlgorithm {
 public:
  TimedRobot(std::unique_ptr<RobotAlgorithm> inner, std::size_t slot,
             RoundTracer& tracer)
      : inner_(std::move(inner)), slot_(slot), tracer_(tracer) {}

  /// The bare inner clone: wrapping probe clones would time the dry runs
  /// twice and cost the probe-heavy workloads a third of their wall time.
  std::unique_ptr<RobotAlgorithm> clone() const override {
    return inner_->clone();
  }
  Port step(const RobotView& view) override {
    return tracer_.step(*inner_, slot_, view);
  }
  void serialize(BitWriter& out) const override { inner_->serialize(out); }
  std::string name() const override { return inner_->name(); }
  bool requires_global_comm() const override {
    return inner_->requires_global_comm();
  }
  bool requires_neighborhood() const override {
    return inner_->requires_neighborhood();
  }
  ViewNeeds view_needs() const override { return inner_->view_needs(); }

 private:
  std::unique_ptr<RobotAlgorithm> inner_;
  std::size_t slot_;
  RoundTracer& tracer_;
};

}  // namespace dyndisp::bench
