#include "check/trial.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "campaign/spec.h"
#include "check/oracles.h"
#include "dynamic/scripted_adversary.h"
#include "sim/fault.h"
#include "util/rng.h"

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
  for (const auto& [key, value] : doc.members()) {
    if (key == "algorithm") c.algorithm = value.as_string();
    else if (key == "adversary") c.adversary = value.as_string();
    else if (key == "family") c.family = value.as_string();
    else if (key == "placement") c.placement = value.as_string();
    else if (key == "comm") c.comm = value.as_string();
    else if (key == "n") c.n = static_cast<std::size_t>(value.as_uint());
    else if (key == "k") c.k = static_cast<std::size_t>(value.as_uint());
    else if (key == "groups") c.groups = static_cast<std::size_t>(value.as_uint());
    else if (key == "faults") c.faults = static_cast<std::size_t>(value.as_uint());
    else if (key == "threads") c.threads = static_cast<std::size_t>(value.as_uint());
    else if (key == "max_rounds") c.max_rounds = value.as_uint();
    else if (key == "seed") c.seed = value.as_uint();
    else if (key == "script")
      c.script = ScriptedAdversary::parse_script(value.as_string());
    // Repro artifacts written before the engine became one path carry the
    // retired engine keys; true is accepted, false is a typed error.
    else if (!campaign::accept_retired_engine_key(key, value))
      throw std::invalid_argument("trial config: unknown key '" + key + "'");
  }
  return c;
}

TrialConfig TrialConfig::parse_json(const std::string& text) {
  return from_json(JsonValue::parse(text));
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
  if (auto it = extra_adversaries_.find(name); it != extra_adversaries_.end())
    return it->second(family, n, seed);
  return campaign::Registry::instance().adversary(name, family, n, seed);
}

bool Toolbox::claims_lemmas(const std::string& algorithm) const {
  if (auto it = extra_algorithms_.find(algorithm);
      it != extra_algorithms_.end())
    return it->second.second;
  return algorithm.rfind("alg4", 0) == 0;
}

bool Toolbox::is_extension(const std::string& name) const {
  return extra_algorithms_.count(name) > 0 || extra_adversaries_.count(name) > 0;
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

/// Everything needed to hand a trial to the Engine. Construction follows
/// the dyndisp_sim / campaign convention exactly (placement on the
/// requested n, fault stream Rng(seed*17+5), comm "default" resolved from
/// the algorithm's declared needs) so a checked run IS the run those tools
/// would perform.
struct BuiltTrial {
  campaign::AlgorithmChoice algo;
  std::unique_ptr<Adversary> adversary;  ///< Null when an override is used.
  Configuration initial;
  FaultSchedule faults;
  EngineOptions options;
};

BuiltTrial build_trial(const TrialConfig& c, const Toolbox& tb,
                       bool need_adversary, std::size_t threads) {
  BuiltTrial b;
  b.algo = tb.algorithm(c.algorithm, c.seed);
  if (need_adversary) {
    if (!c.script.empty())
      b.adversary = std::make_unique<ScriptedAdversary>(c.script);
    else
      b.adversary = tb.adversary(c.adversary, c.family, c.n, c.seed);
  }
  b.initial = campaign::Registry::instance().placement(c.placement, c.n, c.k,
                                                       c.groups, c.seed);
  if (c.faults > 0) {
    Rng rng(c.seed * 17 + 5);
    b.faults = FaultSchedule::random(c.k, c.faults, c.k, rng);
  }
  b.options.max_rounds = c.effective_max_rounds();
  const std::string comm =
      c.comm == "default" ? (b.algo.needs_global ? "global" : "local") : c.comm;
  b.options.comm = comm == "global" ? CommModel::kGlobal : CommModel::kLocal;
  b.options.neighborhood_knowledge = b.algo.needs_knowledge;
  b.options.allow_model_mismatch = true;
  b.options.record_progress = true;
  b.options.threads = threads;
  return b;
}

}  // namespace

CheckedOutcome run_checked(const TrialConfig& config, const Toolbox& toolbox,
                           Adversary* override_adversary) {
  BuiltTrial b = build_trial(config, toolbox,
                             /*need_adversary=*/override_adversary == nullptr,
                             config.threads);
  const OracleProfile profile =
      oracle_profile(config, toolbox.claims_lemmas(config.algorithm));
  b.options.invariant_checker = make_invariant_checker(profile, config.k);
  const std::shared_ptr<const std::size_t> reference_rounds =
      install_broadcast_reference(b.options, b.faults);

  Adversary& adversary =
      override_adversary ? *override_adversary : *b.adversary;
  CheckedOutcome out;
  try {
    Engine engine(adversary, std::move(b.initial), b.algo.factory, b.options,
                  std::move(b.faults));
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
  BuiltTrial b = build_trial(config, toolbox, /*need_adversary=*/true, threads);
  Engine engine(*b.adversary, std::move(b.initial), b.algo.factory, b.options,
                std::move(b.faults));
  return engine.run();
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
