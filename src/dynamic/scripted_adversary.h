// Adversary that plays a pre-recorded sequence of graphs. Used by tests
// that need exact control over every round, by the Fig. 3/4 walkthrough,
// and by the correctness harness's shrinker, which captures any adversary
// into a scripted prefix and replays truncations of it.
//
// Horizon semantics (a documented guarantee, not an accident): for round
// r < script_length() the adversary emits script[r]; for every later round
// it repeats the LAST graph of the script forever. A script is therefore a
// finite description of an infinite execution, and truncating a script to
// any non-empty prefix still yields a well-defined run -- which is exactly
// what the shrinker relies on when it minimizes a failing script.
#pragma once

#include <string>
#include <vector>

#include "dynamic/dynamic_graph.h"

namespace dyndisp {

class ScriptedAdversary final : public Adversary {
 public:
  /// Throws std::invalid_argument when `script` is empty or its graphs do
  /// not share one node count (scripts are untrusted input: the harness
  /// parses them back from repro artifacts).
  explicit ScriptedAdversary(std::vector<Graph> script);

  std::string name() const override { return "scripted"; }
  std::size_t node_count() const override { return script_.front().node_count(); }
  void next_graph_into(Round r, const Configuration& conf,
                       Graph& out) override;

  /// True past the repeat-last horizon and on script lines whose graph
  /// equals the previously emitted one. Compares CONTENT, not just indices,
  /// so the promise survives the engine skipping next_graph_into calls while
  /// the hint was true (last_idx_ goes stale but only onto an equal graph).
  bool same_as_last(Round r, const Configuration& conf) const override;

  std::size_t script_length() const { return script_.size(); }
  const std::vector<Graph>& script() const { return script_; }

  /// Serializes a script as text: one "g <n> <m>" header per graph followed
  /// by m lines "u v port_u port_v". Ports are explicit so a shuffled
  /// port labeling round-trips exactly (parse_script(serialize_script(s))
  /// reproduces every graph bit-identically).
  static std::string serialize_script(const std::vector<Graph>& script);

  /// Parses the serialize_script format; throws std::invalid_argument on
  /// malformed input (bad header, n beyond NodeId, truncated edges, invalid
  /// port labeling). Nothing but the node count is sized from a
  /// number the text does not back: edge storage is bounded by the text
  /// left, and ports by their endpoint's edge count.
  static std::vector<Graph> parse_script(const std::string& text);

 private:
  std::vector<Graph> script_;
  std::size_t last_idx_ = 0;
  bool has_emitted_ = false;
};

}  // namespace dyndisp
