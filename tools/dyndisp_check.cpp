// dyndisp_check -- the property-based correctness harness as a CLI.
//
// fuzz:   generate random trials over everything the campaign registry
//         offers, run each with the paper's invariant oracles installed
//         (plus the threads differential), shrink every failure, and dump
//         self-contained repro artifacts.
// replay: re-run a repro artifact deterministically and confirm it still
//         violates the oracle it was recorded against.
// shrink: minimize a failing artifact further (or shrink a hand-written
//         failing config for the first time).
//
//   dyndisp_check fuzz --trials 200 --artifacts repros/
//   dyndisp_check fuzz --plant disconnect --expect-violation
//   dyndisp_check replay repros/repro-1-round-graph.json
//   dyndisp_check shrink repros/repro-1-round-graph.json --out min.json
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "check/fuzzer.h"
#include "check/planted.h"
#include "check/repro.h"
#include "check/shrinker.h"
#include "check/trial.h"
#include "util/cli.h"

namespace {

using namespace dyndisp;
using namespace dyndisp::check;

constexpr const char* kUsage = R"(dyndisp_check -- property-based trial fuzzer

commands:
  fuzz                 random trials x invariant oracles + the threads
                       differential (threads=1 vs --diff-threads)
      --trials N       trial budget (default 100)
      --budget-s S     wall-clock budget in seconds, 0 = none (default 0)
      --seed S         base seed for the trial stream (default 1)
      --max-n N        largest requested node count (default 24)
      --fault-prob P   fraction of trials with crash faults (default 0.3)
      --diff-threads N parallel leg of the threads differential (default 4)
      --no-differential  skip the threads differential
      --artifacts DIR  write one repro artifact per failure into DIR
      --max-failures N stop after N failures (default 5)
      --plant NAME     fuzz a deliberately broken component instead of the
                       registry: disconnect | lazy
      --expect-violation  invert the exit code (planted-bug self-tests)
      --quiet          suppress per-event log lines
  replay <artifact>    re-run a repro artifact
      --plant NAME     resolve planted component names (as above)
      exit 0: same oracle violated again; 3: it did not reproduce
  shrink <artifact>    minimize a failing artifact further
      --out FILE       where to write the minimized artifact
                       (default: <artifact>.min.json)
      --max-attempts N shrink budget in candidate re-runs (default 400)
      --plant NAME     resolve planted component names (as above)
      exit 0: minimized artifact written; 3: input did not reproduce
  --help               this text

exit codes: 0 success; 2 usage/config error; 3 replay/shrink could not
reproduce; 4 fuzz found violations (0 with --expect-violation).
)";

int check_unused(const CliArgs& args) {
  if (const auto unknown = args.unused(); !unknown.empty()) {
    std::fprintf(stderr, "unknown flag --%s (see --help)\n",
                 unknown.front().c_str());
    return 2;
  }
  return 0;
}

Toolbox make_toolbox(const CliArgs& args) {
  const std::string plant = args.get("plant", "");
  if (plant.empty()) return Toolbox{};
  return planted_toolbox(plant);
}

int cmd_fuzz(const CliArgs& args) {
  FuzzOptions options;
  options.trials = static_cast<std::size_t>(args.get_uint("trials", 100));
  options.budget_s = args.get_double("budget-s", 0.0);
  options.base_seed = args.get_uint("seed", 1);
  options.max_n = static_cast<std::size_t>(args.get_uint("max-n", 24));
  options.fault_probability = args.get_double("fault-prob", 0.3);
  options.diff_threads =
      static_cast<std::size_t>(args.get_uint("diff-threads", 4));
  options.differential = !args.has("no-differential");
  options.artifact_dir = args.get("artifacts", "");
  options.max_failures =
      static_cast<std::size_t>(args.get_uint("max-failures", 5));
  const bool expect_violation = args.has("expect-violation");
  const bool quiet = args.has("quiet");
  options.log = quiet ? nullptr : &std::cout;
  const Toolbox toolbox = make_toolbox(args);
  if (const int rc = check_unused(args)) return rc;
  if (!options.artifact_dir.empty())
    std::filesystem::create_directories(options.artifact_dir);

  const FuzzReport report = fuzz(options, toolbox);
  std::printf(
      "fuzz: %zu trials, %zu differential, %zu broadcast rounds compared, "
      "%zu violation(s)%s\n",
      report.trials_run, report.differential_trials, report.reference_rounds,
      report.failures.size(),
      report.budget_exhausted ? " (budget exhausted)" : "");
  for (const FuzzFailure& f : report.failures) {
    std::printf("  [%s] %s\n", f.violation.oracle.c_str(),
                f.shrunk.summary().c_str());
    if (!f.artifact_path.empty())
      std::printf("    artifact: %s\n", f.artifact_path.c_str());
    std::printf("    replay:   dyndisp_check replay %s\n",
                f.artifact_path.empty() ? "<artifact>"
                                        : f.artifact_path.c_str());
  }
  const bool clean = report.clean();
  if (expect_violation) return clean ? 4 : 0;
  return clean ? 0 : 4;
}

int cmd_replay(const std::string& path, const CliArgs& args) {
  const bool quiet = args.has("quiet");
  const Toolbox toolbox = make_toolbox(args);
  if (const int rc = check_unused(args)) return rc;

  const ReproArtifact artifact = load_artifact(path);
  if (!quiet) {
    std::printf("replay: %s\n", artifact.config.summary().c_str());
    std::printf("expect: [%s] at round %llu\n",
                artifact.expected.oracle.c_str(),
                static_cast<unsigned long long>(artifact.expected.round));
  }
  const ReplayOutcome outcome = replay(artifact, toolbox);
  if (outcome.violation) {
    std::printf("got:    [%s] at round %llu\n",
                outcome.violation->oracle.c_str(),
                static_cast<unsigned long long>(outcome.violation->round));
    if (!quiet) std::printf("        %s\n", outcome.violation->message.c_str());
  } else {
    std::printf("got:    no violation\n");
  }
  if (!outcome.reproduced) {
    std::fprintf(stderr, "replay: artifact did NOT reproduce\n");
    return 3;
  }
  std::printf("replay: reproduced\n");
  return 0;
}

int cmd_shrink(const std::string& path, const CliArgs& args) {
  const std::string out_path = args.get("out", path + ".min.json");
  ShrinkOptions shrink_options;
  shrink_options.max_attempts =
      static_cast<std::size_t>(args.get_uint("max-attempts", 400));
  const Toolbox toolbox = make_toolbox(args);
  if (const int rc = check_unused(args)) return rc;

  ReproArtifact artifact = load_artifact(path);
  const CheckedOutcome out = run_checked(artifact.config, toolbox);
  if (!out.violation || out.violation->oracle != artifact.expected.oracle) {
    std::fprintf(stderr, "shrink: artifact did not reproduce [%s]\n",
                 artifact.expected.oracle.c_str());
    return 3;
  }
  const ShrinkResult result =
      shrink(artifact.config, *out.violation, toolbox, shrink_options);
  std::printf("shrink: %s\n   ->   %s\n(%zu candidate runs)\n",
              artifact.config.summary().c_str(),
              result.config.summary().c_str(), result.attempts);
  ReproArtifact minimized;
  minimized.config = result.config;
  minimized.expected = result.violation;
  minimized.note = "shrunk from " + artifact.config.summary();
  write_artifact(minimized, out_path);
  std::printf("shrink: minimized artifact written to %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2 || std::string(argv[1]) == "--help" ||
        std::string(argv[1]) == "help") {
      std::fputs(kUsage, stdout);
      return argc < 2 ? 2 : 0;
    }
    const std::string command = argv[1];
    if (command == "fuzz") {
      const CliArgs args(argc - 1, argv + 1);
      return cmd_fuzz(args);
    }
    if (command == "replay" || command == "shrink") {
      if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
        std::fprintf(stderr, "%s needs an <artifact> argument (see --help)\n",
                     command.c_str());
        return 2;
      }
      const CliArgs args(argc - 2, argv + 2);
      const std::string path = argv[2];
      return command == "replay" ? cmd_replay(path, args)
                                 : cmd_shrink(path, args);
    }
    std::fprintf(stderr, "unknown command '%s' (see --help)\n",
                 command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
