// The 1-interval connected dynamic graph model (Kuhn-Lynch-Oshman style,
// Section II of the paper): a fixed vertex set V with |V| = n, and for each
// round r an adversary-chosen edge set E_r such that G_r = (V, E_r) is
// connected. The adversary knows the algorithm and all states up to round
// r-1; the strongest adversaries here additionally dry-run the algorithm's
// compute phase (the paper's "the adversary knows which robot will move
// through which port in the next round", proof of Theorem 2).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "robots/configuration.h"
#include "util/types.h"

namespace dyndisp {

class ThreadPool;  // util/parallel.h

/// Planned exit ports for all robots on a candidate graph: entry id-1 holds
/// the port robot id would take (kInvalidPort = stay put / dead).
using MovePlan = std::vector<Port>;

/// Dry-runs the algorithm's compute phase on a candidate graph without
/// committing state. Installed by the simulation engine on adversaries that
/// request it.
using PlanProbe = std::function<MovePlan(const Graph&)>;

/// Produces G_r each round. Implementations must keep |V| fixed and every
/// emitted graph connected; the engine validates every emitted graph
/// (validate_round_graph, dynamic/validator.h) and aborts the run at the
/// first bad one.
///
/// An adversary emits through exactly one override, next_graph_into. The
/// engine double-buffers graphs and hands the round-before-last's Graph back
/// in, so regenerating adversaries refill its offset and half-edge arrays
/// in place instead of allocating a fresh graph per round; copy-assigning a
/// fixed graph into a warm `out` already reuses both arrays' capacity.
/// next_graph is the by-value convenience over it for tests and tools.
class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Human-readable adversary name for tables and traces.
  virtual std::string name() const = 0;

  /// Number of nodes of every emitted graph.
  virtual std::size_t node_count() const = 0;

  /// Emits G_r, given the configuration at the start of round r, into
  /// caller-owned storage: `out` is overwritten whatever it held before.
  virtual void next_graph_into(Round r, const Configuration& conf,
                               Graph& out) = 0;

  /// Emits G_r by value: next_graph_into on a fresh Graph. Virtual only so
  /// wrappers can observe by-value calls too; emission logic belongs in
  /// next_graph_into.
  virtual Graph next_graph(Round r, const Configuration& conf) {
    Graph g;
    next_graph_into(r, conf, g);
    return g;
  }

  /// Installs the engine's compute pool for parallel graph construction
  /// (null = build serially). Adversaries that use the pool MUST emit
  /// byte-identical graphs at any thread count -- counter-based RNG
  /// streams, never lane-ordered draws; the adversary conformance suite
  /// pins exactly that for every registered adversary. The default ignores
  /// the pool (sequential builders are trivially thread-count-invariant).
  virtual void set_thread_pool(ThreadPool* pool) { (void)pool; }

  /// Reuse hint, queried by the engine BEFORE next_graph(r, conf): true
  /// promises that next_graph(r, conf) would return a graph operator==-equal
  /// to the last graph this adversary returned, letting the engine skip the
  /// call (and downstream rebuilds) entirely. Implementations must keep the
  /// promise even when the engine skipped some next_graph calls in between
  /// (i.e. the hint is relative to the last graph actually handed out). The
  /// conservative default -- never claim reuse -- is always safe: the engine
  /// falls back to fingerprint comparison of the emitted graph, so every
  /// adversary benefits from cross-round reuse, just one graph-build later.
  virtual bool same_as_last(Round r, const Configuration& conf) const {
    (void)r;
    (void)conf;
    return false;
  }

  /// True when this adversary dry-runs the algorithm (trap adversaries).
  virtual bool wants_plan_probe() const { return false; }

  /// Installs the dry-run callback. Called by the engine every round before
  /// next_graph when wants_plan_probe() is true.
  virtual void set_plan_probe(PlanProbe probe) { probe_ = std::move(probe); }

 protected:
  PlanProbe probe_;
};

/// Applies a move plan to a configuration on graph `g`: `out` becomes `conf`
/// with every alive robot that has a non-zero planned port moved across
/// that port. Used by trap adversaries to evaluate what a candidate graph
/// would lead to; copy-assigning into a warm `out` reuses its buffers, so
/// they score every candidate without allocating.
void apply_plan(const Graph& g, const Configuration& conf,
                const MovePlan& plan, Configuration& out);

/// The dynamic graph as experienced by one execution: caches the per-round
/// graphs an adversary emitted so traces, validators, and post-hoc metrics
/// (dynamic diameter, dynamic max degree) can replay them.
class DynamicGraphLog {
 public:
  void record(const Graph& g) { history_.push_back(g); }

  std::size_t rounds() const { return history_.size(); }
  const Graph& at(Round r) const { return history_[r]; }
  const std::vector<Graph>& history() const { return history_; }

  /// Dynamic diameter \hat{D}: max diameter over recorded rounds.
  std::size_t dynamic_diameter() const;

  /// Dynamic maximum degree \hat{Delta}: max degree over recorded rounds.
  std::size_t dynamic_max_degree() const;

 private:
  std::vector<Graph> history_;
};

}  // namespace dyndisp
