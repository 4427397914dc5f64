// Declarative campaign specs: a small JSON format describing axes whose
// cross-product expands into a deterministic, ordered list of fully
// specified trial jobs.
//
// Spec format (all axes optional; defaults in brackets):
//
//   {
//     "name": "table1",                   // required, names the campaign
//     "axes": {
//       "algorithms":  ["alg4", "dfs"],   // [["alg4"]]
//       "adversaries": ["random"],        // [["random"]]
//       "n":           [20, 40],          // [[20]]
//       "k":           [12],              // [[2n/3 of each n]]
//       "comm":        ["default"],       // [["default"]] | "global"|"local"
//       "faults":      [0, 4]             // [[0]]
//     },
//     "family":    "random",              // static-adversary family
//     "placement": "rooted",              // initial configuration
//     "groups":    3,                     // grouped-placement group count
//     "seeds":     10,                    // trials per tuple [1]
//     "base_seed": 1,                     // first seed [1]
//     "max_rounds": 0                     // 0 = 100*k (dyndisp_sim default)
//   }
//
// The retired engine keys "soa", "flat_packets", "incremental" and
// "structure_cache" are still accepted with the value true (see
// accept_retired_engine_key).
//
// Every name is validated against the campaign registry at parse time, so a
// typo fails before any trial runs. Expansion order is the fixed nesting
// algorithm > adversary > n > k > comm > faults > seed; job indices and ids
// are therefore stable across runs, which is what the resumable store keys
// on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "util/types.h"

namespace dyndisp {
class JsonValue;
}  // namespace dyndisp

namespace dyndisp::campaign {

/// Engine options retired when the engine became one path: "soa",
/// "flat_packets", "incremental" and "structure_cache". Campaign specs and
/// repro artifacts written earlier still carry them, so both readers accept
/// each one only with the value true, which names the one remaining path.
/// Returns false when `key` is not a retired option; throws
/// std::invalid_argument naming the option when `value` is anything but
/// true.
bool accept_retired_engine_key(const std::string& key, const JsonValue& value);

/// One fully-specified trial job: the cross-product point plus the seed.
struct JobSpec {
  std::size_t index = 0;  ///< Position in the campaign's expansion order.
  std::string algorithm;
  std::string adversary;
  std::string family;
  std::string placement;
  std::string comm;  ///< "default" | "global" | "local".
  std::size_t n = 0;
  std::size_t k = 0;
  std::size_t groups = 3;
  std::size_t faults = 0;
  Round max_rounds = 0;  ///< 0 = 100*k.
  std::uint64_t seed = 1;

  /// Canonical id, e.g. "alg4|random|n=20|k=12|comm=default|f=0|seed=3".
  /// Uniquely identifies the job within its campaign; the resume key.
  std::string id() const;

  /// The round budget actually applied (resolves the 0 default).
  Round effective_max_rounds() const { return max_rounds ? max_rounds : 100 * k; }
};

/// Builds the runnable analysis::TrialSpec for a job by resolving its names
/// through the registry, mirroring dyndisp_sim's construction exactly (same
/// adversary/placement/fault seeds, same engine defaults) so campaign
/// records match one-off sim runs on the same tuple and seed.
analysis::TrialSpec make_trial_spec(const JobSpec& job);

class CampaignSpec {
 public:
  /// Parses and validates a spec document; throws std::invalid_argument on
  /// malformed JSON, unknown keys/axes, or names absent from the registry.
  static CampaignSpec parse_json(const std::string& text);
  /// Reads `path` and parses it; throws std::runtime_error if unreadable.
  static CampaignSpec parse_file(const std::string& path);

  const std::string& name() const { return name_; }
  const std::string& source_text() const { return source_; }

  std::size_t seeds() const { return seeds_; }
  std::uint64_t base_seed() const { return base_seed_; }

  /// Smoke-mode override (e.g. `--seeds 2`); must be >= 1.
  void set_seeds(std::size_t seeds);

  /// Number of jobs expand() will produce.
  std::size_t job_count() const;

  /// The deterministic, ordered cross-product of all axes and seeds.
  std::vector<JobSpec> expand() const;

  /// FNV-1a hash (hex) over the canonical axes (excluding the seed range, so
  /// a store can be extended with more seeds); identifies the campaign a
  /// stored record belongs to.
  std::string hash() const;

  const std::vector<std::string>& algorithms() const { return algorithms_; }
  const std::vector<std::string>& adversaries() const { return adversaries_; }
  const std::vector<std::size_t>& n_values() const { return ns_; }
  const std::vector<std::size_t>& k_values() const { return ks_; }
  const std::vector<std::string>& comm_values() const { return comms_; }
  const std::vector<std::size_t>& fault_values() const { return faults_; }

 private:
  CampaignSpec() = default;

  /// k for tuple (n, k-axis entry): k_axis empty means the dyndisp_sim
  /// default 2n/3 (at least 2).
  std::vector<std::size_t> ks_for(std::size_t n) const;
  std::string canonical() const;

  std::string name_;
  std::string source_;
  std::vector<std::string> algorithms_{"alg4"};
  std::vector<std::string> adversaries_{"random"};
  std::vector<std::size_t> ns_{20};
  std::vector<std::size_t> ks_;  // empty = derive 2n/3
  std::vector<std::string> comms_{"default"};
  std::vector<std::size_t> faults_{0};
  std::string family_ = "random";
  std::string placement_ = "rooted";
  std::size_t groups_ = 3;
  std::size_t seeds_ = 1;
  std::uint64_t base_seed_ = 1;
  Round max_rounds_ = 0;
};

}  // namespace dyndisp::campaign
