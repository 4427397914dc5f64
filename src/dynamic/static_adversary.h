// Degenerate adversary that replays a fixed graph every round -- the static
// special case of the dynamic model. Optionally re-shuffles port labels each
// round, which static-graph algorithms cannot tolerate but the paper's
// Algorithm 4 can (it rebuilds all structures from scratch every round).
#pragma once

#include <string>

#include "dynamic/dynamic_graph.h"

namespace dyndisp {

class StaticAdversary final : public Adversary {
 public:
  explicit StaticAdversary(Graph g, bool reshuffle_ports = false,
                           std::uint64_t seed = 1);

  std::string name() const override;
  std::size_t node_count() const override { return graph_.node_count(); }

  /// Static graphs never change once emitted; the port-shuffling variant
  /// relabels every round, so it never claims reuse.
  bool same_as_last(Round r, const Configuration& conf) const override {
    (void)r;
    (void)conf;
    return has_emitted_ && !reshuffle_ports_;
  }

  /// Copy-assigns the (possibly reshuffled) fixed graph into recycled
  /// storage; the reshuffle variant relabels through (seed, emission#)
  /// counter port streams.
  void next_graph_into(Round r, const Configuration& conf,
                       Graph& out) override;
  void set_thread_pool(ThreadPool* pool) override { pool_ = pool; }

 private:
  Graph graph_;
  bool reshuffle_ports_;
  std::uint64_t seed_;
  std::uint64_t emissions_ = 0;  ///< Draw index of the next relabeling.
  ThreadPool* pool_ = nullptr;
  bool has_emitted_ = false;
};

}  // namespace dyndisp
