// T-interval connected adversary (the paper's first future-work direction):
// wraps any inner adversary and holds each emitted graph fixed for T
// consecutive rounds. For T = 1 this is exactly the inner adversary; for
// larger T the whole graph is stable across each window, which trivially
// satisfies T-interval connectivity (a stable connected spanning subgraph
// across every window of T rounds).
#pragma once

#include <memory>
#include <string>

#include "dynamic/dynamic_graph.h"

namespace dyndisp {

class TIntervalAdversary final : public Adversary {
 public:
  /// Requires t >= 1 and a non-null inner adversary.
  TIntervalAdversary(std::unique_ptr<Adversary> inner, std::size_t t);

  std::string name() const override;
  std::size_t node_count() const override { return inner_->node_count(); }

  /// Stable within each T-round window: rounds with r % t != 0 replay the
  /// window's graph verbatim. Safe under skipped next_graph calls because
  /// the inner adversary is only consulted at window starts (r % t == 0),
  /// where this returns false and forces a real call.
  bool same_as_last(Round r, const Configuration& conf) const override {
    (void)conf;
    return have_current_ && r % t_ != 0;
  }

  bool wants_plan_probe() const override { return inner_->wants_plan_probe(); }
  void set_plan_probe(PlanProbe probe) override {
    inner_->set_plan_probe(std::move(probe));
  }

  /// Window starts regenerate through the inner adversary's in-place path
  /// (its storage recycling and parallelism carry through); replay rounds
  /// copy-assign the cached window graph into the recycled arrays.
  void next_graph_into(Round r, const Configuration& conf,
                       Graph& out) override;
  void set_thread_pool(ThreadPool* pool) override {
    inner_->set_thread_pool(pool);
  }

 private:
  std::unique_ptr<Adversary> inner_;
  std::size_t t_;
  Graph current_;
  bool have_current_ = false;
};

}  // namespace dyndisp
