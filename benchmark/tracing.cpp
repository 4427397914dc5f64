#include "tracing.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/phase_clock.h"

namespace dyndisp::bench {

RoundTracer::RoundTracer(std::size_t robots, std::size_t lanes,
                         std::shared_ptr<const core::PlanCache> cache)
    : robots_(robots), lanes_(lanes), cache_(std::move(cache)) {
  if (lanes_ <= 1) return;
  slots_.resize(robots_);
  is_edge_.assign(robots_, false);
  for (std::size_t c = 0; c < lanes_; ++c) {
    const std::size_t begin = c * robots_ / lanes_;
    const std::size_t end = (c + 1) * robots_ / lanes_;
    if (begin == end) continue;
    for (const std::size_t i : {begin, end - 1}) {
      if (!is_edge_[i]) edges_.push_back(i);
      is_edge_[i] = true;
    }
  }
}

void RoundTracer::begin_run() {
  rounds_.clear();
  lead_in_ns_ = 0;
  state_ = State::kBetween;
  run_start_ = phase_clock_ns();
}

void RoundTracer::end_run() {
  run_end_ = phase_clock_ns();
  if (state_ == State::kSteps) close_steps();
  if (rounds_.empty())
    lead_in_ns_ = run_end_ - run_start_;
  else
    rounds_.back().post_step_ns = run_end_ - last_end_;
  state_ = State::kIdle;
}

void RoundTracer::adversary_enter() {
  if (state_ == State::kIdle || state_ == State::kAdversary) return;
  const std::uint64_t t = phase_clock_ns();
  if (state_ == State::kSteps) close_steps();
  if (rounds_.empty())
    lead_in_ns_ = t - run_start_;
  else
    rounds_.back().post_step_ns = t - last_end_;
  rounds_.emplace_back();
  state_ = State::kAdversary;
  adversary_start_ = t;
}

void RoundTracer::adversary_settled(bool reused) {
  if (state_ != State::kAdversary) return;
  adversary_end_ = phase_clock_ns();
  RoundSpan& round = rounds_.back();
  round.adversary_ns = adversary_end_ - adversary_start_;
  round.graph_reused = reused;
  misses_before_ = cache_->misses();
  steps_ = 0;
  state_ = State::kSteps;
}

PlanProbe RoundTracer::wrap_probe(PlanProbe probe) {
  return [this, probe = std::move(probe)](const Graph& g) {
    const std::uint64_t t0 = phase_clock_ns();
    MovePlan plan = probe(g);
    RoundSpan& round = rounds_.back();
    round.probe_ns += phase_clock_ns() - t0;
    ++round.probe_calls;
    return plan;
  };
}

Port RoundTracer::step(RobotAlgorithm& robot, std::size_t slot,
                       const RobotView& view) {
  if (lanes_ > 1) {
    if (!is_edge_[slot]) return robot.step(view);
    const std::uint64_t t0 = phase_clock_ns();
    const Port p = robot.step(view);
    slots_[slot] = Slot{t0, phase_clock_ns()};
    return p;
  }
  const bool first = steps_ == 0;
  if (first) first_start_ = phase_clock_ns();
  const Port p = robot.step(view);
  if (first) first_end_ = phase_clock_ns();
  if (++steps_ == robots_) {
    last_end_ = phase_clock_ns();
    close_steps();
    state_ = State::kBetween;
  }
  return p;
}

void RoundTracer::close_steps() {
  std::uint64_t longest = first_end_ - first_start_;
  if (lanes_ > 1) {
    first_start_ = slots_[edges_.front()].start;
    last_end_ = slots_[edges_.front()].end;
    longest = 0;
    for (const std::size_t i : edges_) {
      const Slot& s = slots_[i];
      first_start_ = std::min(first_start_, s.start);
      last_end_ = std::max(last_end_, s.end);
      longest = std::max(longest, s.end - s.start);
    }
  } else if (steps_ != robots_) {
    throw std::logic_error(
        "traced round stepped fewer robots than k: the one-lane step clock "
        "assumes synchronous activation and no faults");
  }
  RoundSpan& round = rounds_.back();
  round.pre_step_ns = first_start_ - adversary_end_;
  const std::uint64_t span = last_end_ - first_start_;
  round.plan_missed = cache_->misses() > misses_before_;
  round.miss_ns = round.plan_missed ? longest : 0;
  round.step_ns = span - round.miss_ns;
}

Graph TimedAdversary::next_graph(Round r, const Configuration& conf) {
  tracer_.adversary_enter();
  Graph g = inner_->next_graph(r, conf);
  tracer_.adversary_settled(false);
  return g;
}

void TimedAdversary::next_graph_into(Round r, const Configuration& conf,
                                     Graph& out) {
  tracer_.adversary_enter();
  inner_->next_graph_into(r, conf, out);
  tracer_.adversary_settled(false);
}

bool TimedAdversary::same_as_last(Round r, const Configuration& conf) const {
  tracer_.adversary_enter();
  const bool same = inner_->same_as_last(r, conf);
  if (same) tracer_.adversary_settled(true);
  return same;
}

bool TimedAdversary::wants_plan_probe() const {
  tracer_.adversary_enter();
  return inner_->wants_plan_probe();
}

void TimedAdversary::set_plan_probe(PlanProbe probe) {
  tracer_.adversary_enter();
  inner_->set_plan_probe(tracer_.wrap_probe(std::move(probe)));
}

}  // namespace dyndisp::bench
