#include "dynamic/dynamic_graph.h"

#include <algorithm>

#include "graph/algorithms.h"

namespace dyndisp {

void apply_plan(const Graph& g, const Configuration& conf,
                const MovePlan& plan, Configuration& out) {
  out = conf;
  for (RobotId id = 1; id <= out.robot_count(); ++id) {
    if (!out.alive(id)) continue;
    const Port p = plan[id - 1];
    if (p == kInvalidPort) continue;
    out.set_position(id, g.neighbor(out.position(id), p));
  }
}

std::size_t DynamicGraphLog::dynamic_diameter() const {
  std::size_t d = 0;
  for (const Graph& g : history_) d = std::max(d, diameter(g));
  return d;
}

std::size_t DynamicGraphLog::dynamic_max_degree() const {
  std::size_t d = 0;
  for (const Graph& g : history_) d = std::max(d, g.max_degree());
  return d;
}

}  // namespace dyndisp
