#include "check/fuzzer.h"

#include <algorithm>
#include <chrono>

#include "campaign/registry.h"
#include "check/differential.h"
#include "check/repro.h"

namespace dyndisp::check {

TrialConfig random_trial(Rng& rng, const Toolbox& toolbox,
                         const FuzzOptions& options) {
  const std::vector<std::string> algorithms = toolbox.algorithm_names();
  const std::vector<std::string> adversaries = toolbox.adversary_names();
  const std::vector<std::string> families =
      campaign::Registry::instance().family_names();
  static const char* const kPlacements[] = {"rooted", "random", "grouped"};

  TrialConfig c;
  c.algorithm = rng.pick(algorithms);
  c.adversary = rng.pick(adversaries);
  c.family = rng.pick(families);
  c.placement = kPlacements[rng.below(3)];
  c.seed = 1 + rng.below(1u << 20);
  const std::size_t lo = std::max<std::size_t>(4, minimum_n(c));
  const std::size_t hi = std::max(lo, options.max_n);
  c.n = lo + rng.below(hi - lo + 1);
  // Families may round the requested size; normalize n to the graph the
  // adversary will actually emit so k and the placement always fit it.
  c.n = toolbox.adversary(c.adversary, c.family, c.n, c.seed)->node_count();
  c.k = 2 + rng.below(c.n - 1);  // [2, n]
  c.groups = 1 + rng.below(std::min(c.k, c.n));
  c.faults =
      rng.chance(options.fault_probability) ? rng.below(c.k / 2 + 1) : 0;
  return c;
}

FuzzReport fuzz(const FuzzOptions& options, const Toolbox& toolbox) {
  FuzzReport report;
  // NOLINTNEXTLINE-dyndisp(determinism-wallclock): the CI budget cutoff
  // only decides WHEN to stop drawing trials; each trial itself stays a
  // pure function of its seed, so every failure replays identically.
  const auto start = std::chrono::steady_clock::now();
  const auto over_budget = [&] {
    if (options.budget_s <= 0) return false;
    const std::chrono::duration<double> elapsed =
        // NOLINTNEXTLINE-dyndisp(determinism-wallclock): budget check only
        // (see above); budget_s=0 disables it for exact-count runs.
        std::chrono::steady_clock::now() - start;
    return elapsed.count() > options.budget_s;
  };
  // Decorrelate from the raw seed so base_seed=1,2,... explore unrelated
  // trial streams.
  Rng rng(options.base_seed * 0x9E3779B97F4A7C15ull + 0x1F123BB5ull);

  for (std::size_t t = 0; t < options.trials; ++t) {
    if (over_budget()) {
      report.budget_exhausted = true;
      if (options.log)
        *options.log << "fuzz: budget exhausted after " << report.trials_run
                     << " trials\n";
      break;
    }
    const TrialConfig config = random_trial(rng, toolbox, options);
    ++report.trials_run;

    const CheckedOutcome out = run_checked(config, toolbox);
    report.reference_rounds += out.reference_rounds;
    std::optional<Violation> violation = out.violation;
    bool from_differential = false;
    if (!violation && options.differential) {
      ++report.differential_trials;
      const DiffReport threads =
          diff_threads(config, toolbox, options.diff_threads);
      if (!threads.ok) {
        violation = Violation{"differential-threads", out.result.rounds,
                              threads.detail};
        from_differential = true;
      }
    }
    if (!violation) continue;

    if (options.log)
      *options.log << "fuzz: [" << violation->oracle << "] round "
                   << violation->round << " in " << config.summary() << '\n';

    FuzzFailure failure;
    failure.original = config;
    failure.shrunk = config;
    failure.violation = *violation;
    if (!from_differential) {
      // Differential mismatches are not shrunk: the shrinker's acceptance
      // test re-runs single configs, which cannot witness a two-leg diff.
      const ShrinkResult shrunk =
          shrink(config, *violation, toolbox, options.shrink);
      failure.shrunk = shrunk.config;
      failure.violation = shrunk.violation;
      failure.captured_script_length = shrunk.captured_script_length;
      if (options.log)
        *options.log << "fuzz: shrunk to " << shrunk.config.summary() << " ("
                     << shrunk.attempts << " attempts)\n";
    }
    if (!options.artifact_dir.empty()) {
      ReproArtifact artifact;
      artifact.config = failure.shrunk;
      artifact.expected = failure.violation;
      artifact.note = "shrunk from " + config.summary();
      const std::string path = options.artifact_dir + "/repro-" +
                               std::to_string(report.failures.size() + 1) +
                               "-" + failure.violation.oracle + ".json";
      write_artifact(artifact, path);
      failure.artifact_path = path;
      if (options.log) *options.log << "fuzz: artifact " << path << '\n';
    }
    report.failures.push_back(std::move(failure));
    if (report.failures.size() >= options.max_failures) break;
  }
  return report;
}

}  // namespace dyndisp::check
