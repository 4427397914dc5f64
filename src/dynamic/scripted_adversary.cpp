#include "dynamic/scripted_adversary.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace dyndisp {

ScriptedAdversary::ScriptedAdversary(std::vector<Graph> script)
    : script_(std::move(script)) {
  if (script_.empty())
    throw std::invalid_argument("scripted adversary: empty script");
  for (const Graph& g : script_) {
    if (g.node_count() != script_.front().node_count())
      throw std::invalid_argument(
          "scripted adversary: graphs disagree on node count");
  }
}

void ScriptedAdversary::next_graph_into(Round r, const Configuration&,
                                        Graph& out) {
  // Repeat-last-graph past the end of the script (see header contract).
  const std::size_t idx =
      r < script_.size() ? static_cast<std::size_t>(r) : script_.size() - 1;
  last_idx_ = idx;
  has_emitted_ = true;
  out = script_[idx];
}

bool ScriptedAdversary::same_as_last(Round r, const Configuration&) const {
  if (!has_emitted_) return false;
  const std::size_t idx =
      r < script_.size() ? static_cast<std::size_t>(r) : script_.size() - 1;
  if (idx == last_idx_) return true;
  // Fingerprint fast-reject, then exact compare: the hint is a hard promise.
  return script_[idx].fingerprint() == script_[last_idx_].fingerprint() &&
         script_[idx] == script_[last_idx_];
}

std::string ScriptedAdversary::serialize_script(
    const std::vector<Graph>& script) {
  std::ostringstream os;
  for (const Graph& g : script) {
    os << "g " << g.node_count() << ' ' << g.edge_count() << '\n';
    for (const Graph::Edge& e : g.edges())
      os << e.u << ' ' << e.v << ' ' << e.port_u << ' ' << e.port_v << '\n';
  }
  return os.str();
}

std::vector<Graph> ScriptedAdversary::parse_script(const std::string& text,
                                                   std::size_t max_nodes) {
  // The shortest edge line, "0 1 1 1" and one separator: the text left
  // after a header bounds how many edges it can still hold.
  constexpr std::size_t kMinEdgeChars = 8;
  std::istringstream is(text);
  std::vector<Graph> script;
  std::string tag;
  while (is >> tag) {
    if (tag != "g")
      throw std::invalid_argument("script: expected 'g' header, got '" + tag +
                                  "'");
    std::size_t n = 0, m = 0;
    if (!(is >> n >> m))
      throw std::invalid_argument("script: malformed graph header");
    // Checked before anything is sized. A script may hold a disconnected
    // graph (a shrunk round-graph violation replays exactly that), so n
    // cannot be bounded by m; the caller's bound and NodeId's range do.
    if (n > kInvalidNode)
      throw std::invalid_argument("script: node count " + std::to_string(n) +
                                  " beyond NodeId");
    if (n > max_nodes)
      throw std::invalid_argument("script: node count " + std::to_string(n) +
                                  " above the bound " +
                                  std::to_string(max_nodes));
    const std::streamoff read = is.tellg();  // -1 once the text is spent
    const std::size_t left =
        read < 0 ? 0 : text.size() - static_cast<std::size_t>(read);
    std::vector<Graph::Edge> edges;
    edges.reserve(std::min(m, left / kMinEdgeChars));
    for (std::size_t i = 0; i < m; ++i) {
      Graph::Edge e;
      if (!(is >> e.u >> e.v >> e.port_u >> e.port_v))
        throw std::invalid_argument("script: truncated edge section");
      edges.push_back(e);
    }
    script.push_back(Graph::from_port_edges(n, edges));
  }
  if (script.empty())
    throw std::invalid_argument("script: no graphs");
  return script;
}

}  // namespace dyndisp
