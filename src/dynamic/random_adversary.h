// Oblivious random adversary: emits a fresh random connected graph (random
// spanning tree plus `extra_edges` chords) with freshly shuffled port labels
// every round. This is the workhorse "benign but fully dynamic" input for
// the Theorem 4 scaling experiments.
#pragma once

#include <string>

#include "dynamic/dynamic_graph.h"
#include "graph/builders.h"

namespace dyndisp {

class RandomAdversary final : public Adversary {
 public:
  RandomAdversary(std::size_t n, std::size_t extra_edges, std::uint64_t seed);

  std::string name() const override { return "random-connected"; }
  std::size_t node_count() const override { return n_; }

  /// Regenerates through the counter-based flat builder at every n: the
  /// round's graph is keyed by (seed, emission#), built into recycled
  /// scratch and rows, optionally fanned out over the pool, and
  /// byte-identical at any thread count.
  void next_graph_into(Round r, const Configuration& conf,
                       Graph& out) override;
  void set_thread_pool(ThreadPool* pool) override { pool_ = pool; }

 private:
  std::size_t n_;
  std::size_t extra_edges_;
  std::uint64_t seed_;
  std::uint64_t emissions_ = 0;  ///< Draw index of the next emission.
  ThreadPool* pool_ = nullptr;
  builders::CounterBuildScratch scratch_;
};

}  // namespace dyndisp
