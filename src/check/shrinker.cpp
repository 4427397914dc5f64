#include "check/shrinker.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "dynamic/scripted_adversary.h"

namespace dyndisp::check {

namespace {

/// Forwards everything to the wrapped adversary while recording each graph
/// it emits. Plan-probe plumbing is forwarded both ways so trap adversaries
/// behave identically under recording.
class RecordingAdversary final : public Adversary {
 public:
  explicit RecordingAdversary(Adversary& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::size_t node_count() const override { return inner_.node_count(); }

  Graph next_graph(Round r, const Configuration& conf) override {
    Graph g = inner_.next_graph(r, conf);
    recorded_.push_back(g);
    return g;
  }

  bool wants_plan_probe() const override { return inner_.wants_plan_probe(); }
  void set_plan_probe(PlanProbe probe) override {
    inner_.set_plan_probe(std::move(probe));
  }

  std::vector<Graph> take_recorded() { return std::move(recorded_); }

 private:
  Adversary& inner_;
  std::vector<Graph> recorded_;
};

/// Clamps the dependent fields after a scalar changed so every candidate is
/// a well-formed trial (k <= n for non-rooted placements to stay solvable,
/// groups in [1, k], faults < k so at least one robot survives).
void clamp(TrialConfig& c) {
  c.k = std::max<std::size_t>(2, std::min(c.k, c.n));
  c.groups = std::max<std::size_t>(1, std::min(c.groups, c.k));
  if (c.faults >= c.k) c.faults = c.k - 1;
}

class Shrinker {
 public:
  Shrinker(const TrialConfig& failing, const Violation& violation,
           const Toolbox& toolbox, const ShrinkOptions& options)
      : toolbox_(toolbox), options_(options), current_(failing),
        violation_(violation) {}

  ShrinkResult run() {
    shrink_scalar(
        [](TrialConfig& c, std::size_t v) { c.n = v; clamp(c); },
        [](const TrialConfig& c) { return c.n; },
        /*floor=*/minimum_n(current_));
    shrink_scalar(
        [](TrialConfig& c, std::size_t v) { c.k = v; clamp(c); },
        [](const TrialConfig& c) { return c.k; }, /*floor=*/2);
    shrink_scalar(
        [](TrialConfig& c, std::size_t v) { c.faults = v; },
        [](const TrialConfig& c) { return c.faults; }, /*floor=*/0);
    std::size_t captured = 0;
    if (current_.script.empty()) captured = capture_script();
    if (!current_.script.empty()) {
      shrink_script_tail();
      shrink_script_front();
      tighten_max_rounds();
    }
    return ShrinkResult{current_, violation_, captured, attempts_};
  }

 private:
  /// Re-runs a candidate; accepts it as the new current config iff it still
  /// violates the same oracle.
  bool accept(const TrialConfig& candidate) {
    if (attempts_ >= options_.max_attempts) return false;
    ++attempts_;
    CheckedOutcome out;
    try {
      out = run_checked(candidate, toolbox_);
    } catch (const std::exception&) {
      // A candidate some component refuses to construct (size constraints
      // the clamp does not know about) is simply not a reduction.
      return false;
    }
    if (!out.violation || out.violation->oracle != violation_.oracle)
      return false;
    current_ = candidate;
    violation_ = *out.violation;
    return true;
  }

  /// Halve-then-decrement on one scalar until neither step reproduces.
  template <typename Set, typename Get>
  void shrink_scalar(Set set, Get get, std::size_t floor) {
    for (;;) {
      const std::size_t value = get(current_);
      if (value <= floor) return;
      const std::size_t half = std::max(floor, value / 2);
      bool reduced = false;
      for (const std::size_t next : {half, value - 1}) {
        if (next >= value) continue;
        TrialConfig candidate = current_;
        set(candidate, next);
        if (accept(candidate)) {
          reduced = true;
          break;
        }
      }
      if (!reduced) return;
    }
  }

  /// Replays the current config with its adversary wrapped in a recorder
  /// and, when the same violation reproduces, replaces the adversary with
  /// the recorded script. Returns the captured length (0 on failure).
  std::size_t capture_script() {
    auto inner = toolbox_.adversary(current_.adversary, current_.family,
                                    current_.n, current_.seed);
    RecordingAdversary recorder(*inner);
    const CheckedOutcome out = run_checked(current_, toolbox_, &recorder);
    ++attempts_;
    if (!out.violation || out.violation->oracle != violation_.oracle)
      return 0;
    std::vector<Graph> script = recorder.take_recorded();
    if (script.empty()) return 0;
    TrialConfig scripted = current_;
    scripted.script = std::move(script);
    // The scripted replay re-executes the identical graph sequence, but
    // accept() re-verifies rather than assuming.
    if (!accept(scripted)) return 0;
    return current_.script.size();
  }

  /// Truncates the script's tail: a prefix plus repeat-last covers the run
  /// up to the violation, and often far fewer graphs suffice.
  void shrink_script_tail() {
    for (;;) {
      const std::size_t len = current_.script.size();
      if (len <= 1) return;
      bool reduced = false;
      for (const std::size_t next : {std::size_t{1}, len / 2, len - 1}) {
        if (next == 0 || next >= len) continue;
        TrialConfig candidate = current_;
        candidate.script.resize(next);
        if (accept(candidate)) {
          reduced = true;
          break;
        }
      }
      if (!reduced) return;
    }
  }

  /// Drops graphs from the front, pulling a late violation toward round 0
  /// (the dropped prefix is usually irrelevant warm-up).
  void shrink_script_front() {
    while (current_.script.size() > 1) {
      TrialConfig candidate = current_;
      candidate.script.erase(candidate.script.begin());
      if (!accept(candidate)) return;
    }
  }

  /// A minimal repro should not ask for more rounds than the violation
  /// needs (post-run oracles keep their horizon: shortening it would change
  /// what they assert).
  void tighten_max_rounds() {
    const Round horizon = violation_.round + 1;
    if (horizon >= current_.job().effective_max_rounds()) return;
    TrialConfig candidate = current_;
    candidate.max_rounds = horizon;
    accept(candidate);
  }

  const Toolbox& toolbox_;
  const ShrinkOptions& options_;
  TrialConfig current_;
  Violation violation_;
  std::size_t attempts_ = 0;
};

}  // namespace

ShrinkResult shrink(const TrialConfig& failing, const Violation& violation,
                    const Toolbox& toolbox, const ShrinkOptions& options) {
  return Shrinker(failing, violation, toolbox, options).run();
}

}  // namespace dyndisp::check
