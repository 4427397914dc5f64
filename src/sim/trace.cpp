#include "sim/trace.h"

#include <sstream>

namespace dyndisp {

RoundObserver record_into(Trace& trace) {
  return [&trace](const RoundSnapshot& s) {
    trace.add(RoundRecord{s.round, s.graph, s.before, s.plan, s.after,
                          s.newly_occupied});
  };
}

std::string Trace::describe_round(std::size_t i) const {
  const RoundRecord& rec = records_[i];
  std::ostringstream os;
  os << "round " << rec.round << ": n=" << rec.graph.node_count()
     << " m=" << rec.graph.edge_count() << "\n";
  os << "  occupied before: ";
  for (const NodeId v : rec.before.occupied_nodes())
    os << v << "(x" << rec.before.robots_at(v).size() << ") ";
  os << "\n  moves: ";
  bool any = false;
  for (RobotId id = 1; id <= rec.moves.size(); ++id) {
    if (rec.moves[id - 1] == kInvalidPort) continue;
    os << "r" << id << ":" << rec.before.position(id) << "-p"
       << rec.moves[id - 1] << "->" << rec.after.position(id) << " ";
    any = true;
  }
  if (!any) os << "(none)";
  os << "\n  occupied after:  ";
  for (const NodeId v : rec.after.occupied_nodes())
    os << v << "(x" << rec.after.robots_at(v).size() << ") ";
  os << "(+" << rec.newly_occupied << " new)\n";
  return os.str();
}

namespace {

void positions_to_json(std::ostringstream& os, const Configuration& conf) {
  os << '[';
  for (RobotId id = 1; id <= conf.robot_count(); ++id) {
    if (id > 1) os << ',';
    if (conf.alive(id))
      os << conf.position(id);
    else
      os << "null";
  }
  os << ']';
}

}  // namespace

std::string trace_to_json(const Trace& trace) {
  std::ostringstream os;
  os << "{\"rounds\":[";
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const RoundRecord& rec = trace.at(i);
    if (i) os << ',';
    os << "{\"round\":" << rec.round;
    os << ",\"graph\":{\"n\":" << rec.graph.node_count() << ",\"edges\":[";
    const auto edges = rec.graph.edges();
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (e) os << ',';
      os << '[' << edges[e].u << ',' << edges[e].v << ',' << edges[e].port_u
         << ',' << edges[e].port_v << ']';
    }
    os << "]}";
    os << ",\"before\":";
    positions_to_json(os, rec.before);
    os << ",\"moves\":[";
    for (std::size_t m = 0; m < rec.moves.size(); ++m) {
      if (m) os << ',';
      os << rec.moves[m];
    }
    os << "]";
    os << ",\"after\":";
    positions_to_json(os, rec.after);
    os << ",\"newly_occupied\":" << rec.newly_occupied << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace dyndisp
