#include "check/trial.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/experiment.h"
#include "campaign/spec.h"
#include "check/oracles.h"
#include "dynamic/scripted_adversary.h"
#include "sim/fault.h"

namespace dyndisp::check {

std::string TrialConfig::summary() const {
  std::ostringstream os;
  os << algorithm << '|' << adversary << '|' << family << '|' << placement
     << "|n=" << n << "|k=" << k << "|g=" << groups << "|f=" << faults
     << "|seed=" << seed;
  if (comm != "default") os << "|comm=" << comm;
  if (max_rounds != 0) os << "|mr=" << max_rounds;
  if (!script.empty()) os << "|script=" << script.size();
  return os.str();
}

void TrialConfig::write_json(JsonWriter& w) const {
  w.begin_object();
  w.member("algorithm", algorithm);
  w.member("adversary", adversary);
  w.member("family", family);
  w.member("placement", placement);
  w.member("comm", comm);
  w.member("n", static_cast<std::uint64_t>(n));
  w.member("k", static_cast<std::uint64_t>(k));
  w.member("groups", static_cast<std::uint64_t>(groups));
  w.member("faults", static_cast<std::uint64_t>(faults));
  w.member("threads", static_cast<std::uint64_t>(threads));
  w.member("max_rounds", static_cast<std::uint64_t>(max_rounds));
  w.member("seed", seed);
  if (!script.empty())
    w.member("script", ScriptedAdversary::serialize_script(script));
  w.end_object();
}

std::string TrialConfig::to_json() const {
  std::ostringstream os;
  JsonWriter w(os);
  write_json(w);
  return os.str();
}

TrialConfig TrialConfig::from_json(const JsonValue& doc) {
  if (!doc.is_object())
    throw std::invalid_argument("trial config must be a JSON object");
  TrialConfig c;
  // The script is parsed after every key is read: its node counts are
  // bounded by the trial's n, and JSON member order is free.
  const JsonValue* script = nullptr;
  for (const auto& [key, value] : doc.members()) {
    if (key == "algorithm") c.algorithm = value.as_string();
    else if (key == "adversary") c.adversary = value.as_string();
    else if (key == "family") c.family = value.as_string();
    else if (key == "placement") c.placement = value.as_string();
    else if (key == "comm") {
      c.comm = value.as_string();
      campaign::check_comm_name(c.comm);
    }
    else if (key == "n") c.n = static_cast<std::size_t>(value.as_uint());
    else if (key == "k") c.k = static_cast<std::size_t>(value.as_uint());
    else if (key == "groups") c.groups = static_cast<std::size_t>(value.as_uint());
    else if (key == "faults") c.faults = static_cast<std::size_t>(value.as_uint());
    else if (key == "threads") c.threads = static_cast<std::size_t>(value.as_uint());
    else if (key == "max_rounds") c.max_rounds = value.as_uint();
    else if (key == "seed") c.seed = value.as_uint();
    else if (key == "script") script = &value;
    // Repro artifacts written before the engine became one path carry the
    // retired engine keys; true is accepted, false is a typed error.
    else if (!campaign::accept_retired_engine_key(key, value))
      throw std::invalid_argument("trial config: unknown key '" + key + "'");
  }
  if (script != nullptr)
    c.script = ScriptedAdversary::parse_script(script->as_string(), c.n);
  return c;
}

TrialConfig TrialConfig::parse_json(const std::string& text) {
  return from_json(JsonValue::parse(text));
}

campaign::JobSpec TrialConfig::job() const {
  campaign::JobSpec job;
  job.algorithm = algorithm;
  job.adversary = adversary;
  job.family = family;
  job.placement = placement;
  job.comm = comm;
  job.n = n;
  job.k = k;
  job.groups = groups;
  job.faults = faults;
  job.max_rounds = max_rounds;
  job.seed = seed;
  return job;
}

void Toolbox::add_algorithm(const std::string& name, AlgorithmFn fn,
                            bool claims_lemmas) {
  extra_algorithms_[name] = {std::move(fn), claims_lemmas};
}

void Toolbox::add_adversary(const std::string& name, AdversaryFn fn) {
  extra_adversaries_[name] = std::move(fn);
}

void Toolbox::restrict_algorithms(std::vector<std::string> names) {
  restricted_algorithms_ = std::move(names);
}

void Toolbox::restrict_adversaries(std::vector<std::string> names) {
  restricted_adversaries_ = std::move(names);
}

campaign::AlgorithmChoice Toolbox::algorithm(const std::string& name,
                                             std::uint64_t seed) const {
  if (auto it = extra_algorithms_.find(name); it != extra_algorithms_.end())
    return it->second.first(seed);
  return campaign::Registry::instance().algorithm(name, seed);
}

std::unique_ptr<Adversary> Toolbox::adversary(const std::string& name,
                                              const std::string& family,
                                              std::size_t n,
                                              std::uint64_t seed) const {
  if (const AdversaryFn* fn = extension_adversary(name))
    return (*fn)(family, n, seed);
  return campaign::Registry::instance().adversary(name, family, n, seed);
}

const Toolbox::AdversaryFn* Toolbox::extension_adversary(
    const std::string& name) const {
  const auto it = extra_adversaries_.find(name);
  return it == extra_adversaries_.end() ? nullptr : &it->second;
}

bool Toolbox::claims_lemmas(const std::string& algorithm) const {
  if (auto it = extra_algorithms_.find(algorithm);
      it != extra_algorithms_.end())
    return it->second.second;
  return algorithm.rfind("alg4", 0) == 0;
}

std::vector<std::string> Toolbox::algorithm_names() const {
  if (!restricted_algorithms_.empty()) return restricted_algorithms_;
  std::vector<std::string> names =
      campaign::Registry::instance().algorithm_names();
  for (const auto& [name, fn] : extra_algorithms_) names.push_back(name);
  return names;
}

std::vector<std::string> Toolbox::adversary_names() const {
  if (!restricted_adversaries_.empty()) return restricted_adversaries_;
  std::vector<std::string> names =
      campaign::Registry::instance().adversary_names();
  for (const auto& [name, fn] : extra_adversaries_) names.push_back(name);
  return names;
}

namespace {

/// The trial as dyndisp_sim and campaigns build it, by
/// campaign::make_trial_spec with the Toolbox's algorithm, so a checked run
/// IS the run those tools perform. Only a script or a planted adversary
/// replaces the registry's. The returned spec may refer to `c` and `tb`.
analysis::TrialSpec build_trial(const TrialConfig& c, const Toolbox& tb,
                                std::size_t threads) {
  analysis::TrialSpec spec = campaign::make_trial_spec(
      c.job(), tb.algorithm(c.algorithm, c.seed));
  if (!c.script.empty()) {
    spec.adversary = [&c](std::uint64_t) -> std::unique_ptr<Adversary> {
      return std::make_unique<ScriptedAdversary>(c.script);
    };
  } else if (const Toolbox::AdversaryFn* planted =
                 tb.extension_adversary(c.adversary)) {
    spec.adversary = [&c, planted](std::uint64_t seed) {
      return (*planted)(c.family, c.n, seed);
    };
  }
  spec.options.record_progress = true;
  spec.options.threads = threads;
  return spec;
}

}  // namespace

CheckedOutcome run_checked(const TrialConfig& config, const Toolbox& toolbox,
                           Adversary* override_adversary) {
  analysis::TrialSpec spec = build_trial(config, toolbox, config.threads);
  std::unique_ptr<Adversary> owned;
  if (override_adversary == nullptr) owned = spec.adversary(config.seed);
  Configuration initial = spec.placement(config.seed);
  FaultSchedule faults =
      spec.faults ? spec.faults(config.seed) : FaultSchedule::none();
  const OracleProfile profile =
      oracle_profile(config, toolbox.claims_lemmas(config.algorithm));
  spec.options.on_round = make_invariant_checker(profile, config.k);
  const std::shared_ptr<const std::size_t> reference_rounds =
      install_broadcast_reference(spec.options);

  Adversary& adversary = override_adversary ? *override_adversary : *owned;
  CheckedOutcome out;
  try {
    Engine engine(adversary, std::move(initial), spec.algorithm, spec.options,
                  std::move(faults));
    out.result = engine.run();
    out.completed = true;
    out.violation = post_run_violation(profile, out.result);
  } catch (const InvariantViolation& e) {
    out.violation = Violation{e.oracle(), e.round(), e.what()};
  }
  if (reference_rounds) out.reference_rounds = *reference_rounds;
  return out;
}

RunResult run_plain(const TrialConfig& config, const Toolbox& toolbox,
                    std::size_t threads) {
  return analysis::run_trial(build_trial(config, toolbox, threads),
                             config.seed);
}

std::size_t minimum_n(const TrialConfig& config) {
  if (config.adversary == "ring" || config.adversary == "ring-worst") return 3;
  if (config.adversary == "static" || config.adversary == "static-shuffle") {
    if (config.family == "torus") return 7;   // 3 x cols torus, cols >= 3
    if (config.family == "cycle") return 3;
  }
  return 2;
}

namespace {

/// FNV-1a over the 8 bytes of `v`, low byte first.
void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
}

}  // namespace

std::uint64_t digest_run(const RunResult& r) {
  std::uint64_t h = 14695981039346656037ull;
  mix(h, r.dispersed ? 1 : 0);
  mix(h, r.rounds);
  mix(h, r.k);
  mix(h, r.initial_occupied);
  mix(h, r.crashed);
  mix(h, r.total_moves);
  mix(h, r.max_memory_bits);
  mix(h, r.packets_sent);
  mix(h, r.packet_bits_sent);
  mix(h, r.stalled_rounds);
  mix(h, r.max_occupied);
  mix(h, r.explored_nodes);
  mix(h, r.exploration_round);
  mix(h, r.final_config.node_count());
  mix(h, r.final_config.robot_count());
  for (RobotId id = 1; id <= r.final_config.robot_count(); ++id) {
    mix(h, r.final_config.alive(id) ? 1 : 0);
    mix(h, r.final_config.position(id));
  }
  mix(h, r.occupied_per_round.size());
  for (const std::size_t v : r.occupied_per_round) mix(h, v);
  return h;
}

std::string describe_run(const RunResult& r) {
  std::ostringstream os;
  os << "dispersed=" << (r.dispersed ? 1 : 0) << " rounds=" << r.rounds
     << " moves=" << r.total_moves << " mem=" << r.max_memory_bits
     << " crashed=" << r.crashed << " occupied=" << r.max_occupied
     << " digest=" << std::hex << digest_run(r);
  return os.str();
}

}  // namespace dyndisp::check
