#include "campaign/spec.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "campaign/registry.h"
#include "sim/engine.h"
#include "util/json.h"
#include "util/rng.h"

namespace dyndisp::campaign {

namespace {

std::vector<std::string> string_axis(const JsonValue& axes, const char* key,
                                     std::vector<std::string> def) {
  const JsonValue* v = axes.find(key);
  if (v == nullptr) return def;
  std::vector<std::string> out;
  for (const JsonValue& item : v->items()) out.push_back(item.as_string());
  if (out.empty())
    throw std::invalid_argument(std::string("axis '") + key + "' is empty");
  return out;
}

std::vector<std::size_t> uint_axis(const JsonValue& axes, const char* key,
                                   std::vector<std::size_t> def,
                                   bool allow_empty = false) {
  const JsonValue* v = axes.find(key);
  if (v == nullptr) return def;
  std::vector<std::size_t> out;
  for (const JsonValue& item : v->items())
    out.push_back(static_cast<std::size_t>(item.as_uint()));
  if (out.empty() && !allow_empty)
    throw std::invalid_argument(std::string("axis '") + key + "' is empty");
  return out;
}

}  // namespace

bool accept_retired_engine_key(const std::string& key,
                               const JsonValue& value) {
  static const char* const kRetired[] = {"soa", "flat_packets", "incremental",
                                         "structure_cache"};
  bool retired = false;
  for (const char* k : kRetired) retired |= key == k;
  if (!retired) return false;
  if (!value.as_bool())
    throw std::invalid_argument(
        "engine option '" + key +
        "' was removed; only its former default (true) is accepted");
  return true;
}

std::string JobSpec::id() const {
  std::ostringstream out;
  out << algorithm << '|' << adversary << '|' << "n=" << n << '|' << "k=" << k
      << '|' << "comm=" << comm << '|' << "f=" << faults << '|'
      << "seed=" << seed;
  return out.str();
}

analysis::TrialSpec make_trial_spec(const JobSpec& job) {
  const Registry& registry = Registry::instance();
  const AlgorithmChoice algo = registry.algorithm(job.algorithm, job.seed);

  analysis::TrialSpec spec;
  spec.algorithm = algo.factory;
  spec.adversary = [job](std::uint64_t seed) {
    return Registry::instance().adversary(job.adversary, job.family, job.n,
                                          seed);
  };
  spec.placement = [job](std::uint64_t seed) {
    return Registry::instance().placement(job.placement, job.n, job.k,
                                          job.groups, seed);
  };
  if (job.faults > 0) {
    spec.faults = [job](std::uint64_t seed) {
      // Same derived stream dyndisp_sim uses, so records are comparable.
      Rng rng(seed * 17 + 5);
      return FaultSchedule::random(job.k, job.faults, job.k, rng);
    };
  }

  EngineOptions options;
  options.max_rounds = job.effective_max_rounds();
  const std::string comm =
      job.comm == "default" ? (algo.needs_global ? "global" : "local")
                            : job.comm;
  options.comm = comm == "global" ? CommModel::kGlobal : CommModel::kLocal;
  options.neighborhood_knowledge = algo.needs_knowledge;
  options.allow_model_mismatch = true;
  options.threads = 1;  // campaign parallelism is across jobs, not robots
  spec.options = options;
  return spec;
}

CampaignSpec CampaignSpec::parse_json(const std::string& text) {
  const JsonValue doc = JsonValue::parse(text);
  if (!doc.is_object())
    throw std::invalid_argument("campaign spec must be a JSON object");

  static const char* const known_keys[] = {
      "name",   "axes",  "family",    "placement",
      "groups", "seeds", "base_seed", "max_rounds"};
  for (const auto& [key, value] : doc.members()) {
    bool known = false;
    for (const char* k : known_keys) known |= key == k;
    if (!known && !accept_retired_engine_key(key, value))
      throw std::invalid_argument("unknown spec key '" + key + "'");
  }

  CampaignSpec spec;
  spec.source_ = text;

  const JsonValue* name = doc.find("name");
  if (name == nullptr)
    throw std::invalid_argument("campaign spec needs a \"name\"");
  spec.name_ = name->as_string();
  if (spec.name_.empty())
    throw std::invalid_argument("campaign \"name\" is empty");

  static const JsonValue kEmptyObject = JsonValue::parse("{}");
  const JsonValue* axes_ptr = doc.find("axes");
  const JsonValue& axes = axes_ptr ? *axes_ptr : kEmptyObject;
  static const char* const known_axes[] = {"algorithms", "adversaries", "n",
                                           "k",          "comm",        "faults"};
  for (const auto& [key, value] : axes.members()) {
    bool known = false;
    for (const char* k : known_axes) known |= key == k;
    if (!known)
      throw std::invalid_argument("unknown axis '" + key + "'");
  }

  spec.algorithms_ = string_axis(axes, "algorithms", spec.algorithms_);
  spec.adversaries_ = string_axis(axes, "adversaries", spec.adversaries_);
  spec.ns_ = uint_axis(axes, "n", spec.ns_);
  spec.ks_ = uint_axis(axes, "k", {}, /*allow_empty=*/true);
  spec.comms_ = string_axis(axes, "comm", spec.comms_);
  spec.faults_ = uint_axis(axes, "faults", spec.faults_);

  if (const JsonValue* v = doc.find("family")) spec.family_ = v->as_string();
  if (const JsonValue* v = doc.find("placement"))
    spec.placement_ = v->as_string();
  if (const JsonValue* v = doc.find("groups"))
    spec.groups_ = static_cast<std::size_t>(v->as_uint());
  if (const JsonValue* v = doc.find("seeds"))
    spec.seeds_ = static_cast<std::size_t>(v->as_uint());
  if (const JsonValue* v = doc.find("base_seed")) spec.base_seed_ = v->as_uint();
  if (const JsonValue* v = doc.find("max_rounds"))
    spec.max_rounds_ = v->as_uint();
  if (spec.seeds_ == 0)
    throw std::invalid_argument("\"seeds\" must be at least 1");

  // Validate every name against the registry now, before any trial runs.
  const Registry& registry = Registry::instance();
  for (const std::string& a : spec.algorithms_)
    if (!registry.has_algorithm(a))
      throw std::invalid_argument("unknown algorithm '" + a + "'");
  for (const std::string& a : spec.adversaries_)
    if (!registry.has_adversary(a))
      throw std::invalid_argument("unknown adversary '" + a + "'");
  for (const std::string& c : spec.comms_)
    if (c != "default" && c != "global" && c != "local")
      throw std::invalid_argument("unknown comm model '" + c +
                                  "' (default|global|local)");
  if (!registry.has_family(spec.family_))
    throw std::invalid_argument("unknown family '" + spec.family_ + "'");
  if (!registry.has_placement(spec.placement_))
    throw std::invalid_argument("unknown placement '" + spec.placement_ + "'");
  return spec;
}

CampaignSpec CampaignSpec::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read campaign spec " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_json(buffer.str());
}

void CampaignSpec::set_seeds(std::size_t seeds) {
  if (seeds == 0) throw std::invalid_argument("seeds must be at least 1");
  seeds_ = seeds;
}

std::vector<std::size_t> CampaignSpec::ks_for(std::size_t n) const {
  if (!ks_.empty()) return ks_;
  return {std::max<std::size_t>(2, 2 * n / 3)};
}

std::size_t CampaignSpec::job_count() const {
  std::size_t tuples = 0;
  for (const std::size_t n : ns_) tuples += ks_for(n).size();
  return algorithms_.size() * adversaries_.size() * tuples * comms_.size() *
         faults_.size() * seeds_;
}

std::vector<JobSpec> CampaignSpec::expand() const {
  std::vector<JobSpec> jobs;
  jobs.reserve(job_count());
  for (const std::string& algorithm : algorithms_)
    for (const std::string& adversary : adversaries_)
      for (const std::size_t n : ns_)
        for (const std::size_t k : ks_for(n))
          for (const std::string& comm : comms_)
            for (const std::size_t faults : faults_)
              for (std::size_t s = 0; s < seeds_; ++s) {
                JobSpec job;
                job.index = jobs.size();
                job.algorithm = algorithm;
                job.adversary = adversary;
                job.family = family_;
                job.placement = placement_;
                job.comm = comm;
                job.n = n;
                job.k = k;
                job.groups = groups_;
                job.faults = faults;
                job.max_rounds = max_rounds_;
                job.seed = base_seed_ + s;
                jobs.push_back(std::move(job));
              }
  return jobs;
}

std::string CampaignSpec::canonical() const {
  std::ostringstream out;
  out << "name=" << name_ << ";algorithms=";
  for (const auto& a : algorithms_) out << a << ',';
  out << ";adversaries=";
  for (const auto& a : adversaries_) out << a << ',';
  out << ";n=";
  for (const auto& n : ns_) out << n << ',';
  out << ";k=";
  for (const auto& k : ks_) out << k << ',';
  out << ";comm=";
  for (const auto& c : comms_) out << c << ',';
  out << ";faults=";
  for (const auto& f : faults_) out << f << ',';
  // seeds/base_seed are deliberately excluded: the hash identifies the tuple
  // grid, so a store can be extended with more seeds of the same campaign
  // (each seed is keyed individually by its job id).
  out << ";family=" << family_ << ";placement=" << placement_
      << ";groups=" << groups_ << ";max_rounds=" << max_rounds_;
  return out.str();
}

std::string CampaignSpec::hash() const {
  // FNV-1a 64 over the canonical axes text.
  const std::string text = canonical();
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

}  // namespace dyndisp::campaign
