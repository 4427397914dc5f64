#include "check/differential.h"

#include "analysis/experiment.h"
#include "campaign/registry.h"
#include "campaign/spec.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "util/rng.h"

namespace dyndisp::check {

namespace {

DiffReport compare(const std::string& axis, const std::string& leg_a,
                   const RunResult& a, const std::string& leg_b,
                   const RunResult& b) {
  if (digest_run(a) == digest_run(b)) return {};
  DiffReport report;
  report.ok = false;
  report.detail = "[differential-" + axis + "] " + leg_a + ": " +
                  describe_run(a) + " | " + leg_b + ": " + describe_run(b);
  return report;
}

}  // namespace

DiffReport diff_threads(const TrialConfig& config, const Toolbox& toolbox,
                        std::size_t threads) {
  const RunResult serial = run_plain(config, toolbox, 1);
  const RunResult parallel = run_plain(config, toolbox, threads);
  return compare("threads", "threads=1", serial,
                 "threads=" + std::to_string(threads), parallel);
}

DiffReport diff_construction(const TrialConfig& config) {
  // Leg A: the campaign path, exactly as the scheduler drives it.
  campaign::JobSpec job;
  job.algorithm = config.algorithm;
  job.adversary = config.adversary;
  job.family = config.family;
  job.placement = config.placement;
  job.comm = config.comm;
  job.n = config.n;
  job.k = config.k;
  job.groups = config.groups;
  job.faults = config.faults;
  job.max_rounds = config.max_rounds;
  job.seed = config.seed;
  analysis::TrialSpec spec = campaign::make_trial_spec(job);
  spec.options.record_progress = true;
  const RunResult via_campaign = analysis::run_trial(spec, job.seed);

  // Leg B: dyndisp_sim's construction, replicated literally (direct
  // registry calls, the driver's option wiring) rather than through
  // make_trial_spec -- the point is that the two clients agree.
  const campaign::Registry& registry = campaign::Registry::instance();
  const campaign::AlgorithmChoice algo =
      registry.algorithm(config.algorithm, config.seed);
  auto adversary = registry.adversary(config.adversary, config.family,
                                      config.n, config.seed);
  Configuration initial = registry.placement(config.placement, config.n,
                                             config.k, config.groups,
                                             config.seed);
  FaultSchedule schedule = FaultSchedule::none();
  if (config.faults > 0) {
    Rng rng(config.seed * 17 + 5);
    schedule = FaultSchedule::random(config.k, config.faults, config.k, rng);
  }
  EngineOptions options;
  options.max_rounds = config.effective_max_rounds();
  const std::string comm = config.comm == "default"
                               ? (algo.needs_global ? "global" : "local")
                               : config.comm;
  options.comm = comm == "global" ? CommModel::kGlobal : CommModel::kLocal;
  options.neighborhood_knowledge = algo.needs_knowledge;
  options.allow_model_mismatch = true;
  options.record_progress = true;
  Engine engine(*adversary, std::move(initial), algo.factory, options,
                std::move(schedule));
  const RunResult via_sim = engine.run();

  return compare("construction", "campaign", via_campaign, "sim", via_sim);
}

}  // namespace dyndisp::check
