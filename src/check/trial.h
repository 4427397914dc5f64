// The correctness harness's unit of work: one fully-specified trial
// (algorithm x adversary x graph family x placement x fault schedule x comm
// model x seed), runnable with the full invariant-oracle set installed.
//
// A TrialConfig is pure data: it JSON round-trips (repro artifacts embed
// one), renders as a one-line id, and -- via the Toolbox -- resolves every
// name through the shared campaign registry, so anything registered there
// is fuzzable for free. Tests extend the Toolbox with deliberately broken
// components (see check/planted.h) without touching the global registry.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/registry.h"
#include "dynamic/dynamic_graph.h"
#include "graph/graph.h"
#include "sim/engine.h"
#include "util/json.h"

namespace dyndisp::check {

/// One fully-specified trial. When `script` is non-empty the adversary name
/// is ignored and a ScriptedAdversary replays the recorded graphs (this is
/// what a shrunk repro looks like); otherwise the adversary is constructed
/// by name through the Toolbox.
struct TrialConfig {
  std::string algorithm = "alg4";
  std::string adversary = "random";
  std::string family = "random";    ///< Consulted by static adversaries.
  std::string placement = "rooted";
  std::string comm = "default";     ///< "default" | "global" | "local".
  std::size_t n = 12;               ///< Requested node count (families may round).
  std::size_t k = 8;
  std::size_t groups = 3;
  std::size_t faults = 0;
  std::size_t threads = 1;
  Round max_rounds = 0;             ///< 0 = 100*k, as everywhere else.
  std::uint64_t seed = 1;
  std::vector<Graph> script;        ///< Non-empty: scripted replay.

  Round effective_max_rounds() const {
    return max_rounds ? max_rounds : 100 * static_cast<Round>(k);
  }

  /// One-line id, e.g. "alg4|random|n=12|k=8|f=0|seed=3" (+ "|script=5").
  std::string summary() const;

  /// JSON object round-trip (scripts embed via the scripted-adversary text
  /// format, ports preserved exactly).
  void write_json(JsonWriter& w) const;
  std::string to_json() const;
  static TrialConfig from_json(const JsonValue& doc);
  static TrialConfig parse_json(const std::string& text);
};

/// Name -> component resolution for trials: the campaign registry plus any
/// test-local extensions, with optional restriction of the fuzzable name
/// pools (a planted-bug toolbox restricts fuzzing to the planted component).
class Toolbox {
 public:
  using AlgorithmFn = std::function<campaign::AlgorithmChoice(std::uint64_t)>;
  using AdversaryFn = std::function<std::unique_ptr<Adversary>(
      const std::string& family, std::size_t n, std::uint64_t seed)>;

  Toolbox() = default;

  /// `claims_lemmas`: whether the algorithm claims Algorithm 4's guarantees
  /// (Lemmas 6-8, Theorems 4-5), turning the lemma oracles on for it.
  void add_algorithm(const std::string& name, AlgorithmFn fn,
                     bool claims_lemmas);
  void add_adversary(const std::string& name, AdversaryFn fn);

  /// Restricts the name pools the fuzzer draws from (lookup still resolves
  /// any registered name).
  void restrict_algorithms(std::vector<std::string> names);
  void restrict_adversaries(std::vector<std::string> names);

  campaign::AlgorithmChoice algorithm(const std::string& name,
                                      std::uint64_t seed) const;
  std::unique_ptr<Adversary> adversary(const std::string& name,
                                       const std::string& family,
                                       std::size_t n, std::uint64_t seed) const;

  /// Registry algorithms claim the lemmas iff their name starts with "alg4";
  /// extensions declare it at registration.
  bool claims_lemmas(const std::string& algorithm) const;

  /// True when the name is a test-local extension (such configs are skipped
  /// by the registry-construction differential).
  bool is_extension(const std::string& name) const;

  /// Fuzzable name pools: the restriction when set, else registry + extras.
  std::vector<std::string> algorithm_names() const;
  std::vector<std::string> adversary_names() const;

 private:
  std::map<std::string, std::pair<AlgorithmFn, bool>> extra_algorithms_;
  std::map<std::string, AdversaryFn> extra_adversaries_;
  std::vector<std::string> restricted_algorithms_;
  std::vector<std::string> restricted_adversaries_;
};

/// One observed invariant violation: which oracle, at which round, and the
/// full diagnostic. `oracle` is the stable key the shrinker matches on.
struct Violation {
  std::string oracle;
  Round round = 0;
  std::string message;
};

struct CheckedOutcome {
  RunResult result;   ///< Meaningful when `completed`.
  bool completed = false;
  std::optional<Violation> violation;
  /// Rounds the broadcast-reference oracle compared (0 when it does not
  /// apply to the trial).
  std::size_t reference_rounds = 0;
};

/// Runs `config` with the oracle set for its profile installed (see
/// check/oracles.h). `override_adversary`, when non-null, is used instead
/// of constructing one (the shrinker's recording wrapper enters here).
CheckedOutcome run_checked(const TrialConfig& config, const Toolbox& toolbox,
                           Adversary* override_adversary = nullptr);

/// Runs `config` with no oracles at the given thread count (differential
/// legs call this).
RunResult run_plain(const TrialConfig& config, const Toolbox& toolbox,
                    std::size_t threads);

/// Smallest requested n the named components can be constructed with: a
/// few registry components have hard minimum sizes (a ring needs 3 nodes,
/// a torus 7). The fuzzer generates at or above this; the shrinker will
/// not shrink n below it.
std::size_t minimum_n(const TrialConfig& config);

/// Order-sensitive FNV-1a digest over every field of a RunResult (scalars,
/// final configuration, per-round occupied counts). Two runs are "bitwise
/// identical" for the differential oracle iff their digests match.
std::uint64_t digest_run(const RunResult& result);

/// Short human-readable fingerprint for diff diagnostics.
std::string describe_run(const RunResult& result);

}  // namespace dyndisp::check
