// Execution traces: optional per-round recording of graphs, configurations,
// and moves, used by the worked-example bench (Figs. 3/4), the examples, and
// debugging. Traces are heavy; a run records one only through the
// record_into observer.
#pragma once

#include <string>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "graph/graph.h"
#include "robots/configuration.h"
#include "sim/engine.h"
#include "util/types.h"

namespace dyndisp {

struct RoundRecord {
  Round round = 0;
  Graph graph;                    ///< G_r
  Configuration before;           ///< Configuration at the start of the round.
  MovePlan moves;                 ///< Chosen exit ports (0 = stayed).
  Configuration after;            ///< Configuration after moves.
  std::size_t newly_occupied = 0; ///< Nodes occupied now but not before.
};

class Trace {
 public:
  void add(RoundRecord rec) { records_.push_back(std::move(rec)); }

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const RoundRecord& at(std::size_t i) const { return records_[i]; }
  const std::vector<RoundRecord>& records() const { return records_; }

  /// Human-readable render of round `i` (occupancy + moves), for examples.
  std::string describe_round(std::size_t i) const;

 private:
  std::vector<RoundRecord> records_;
};

/// An EngineOptions::on_round observer that appends a copy of every
/// executed round (G_r, both configurations, the moves) to `trace`, which
/// must outlive the run.
RoundObserver record_into(Trace& trace);

/// Serializes a trace to JSON (dependency-free writer): per round the graph
/// (node count + edge list with both port labels), robot positions before
/// and after, chosen exit ports, and the newly-occupied count. Suitable for
/// external replay/visualization tooling; emitted by the dyndisp_sim CLI.
std::string trace_to_json(const Trace& trace);

}  // namespace dyndisp
