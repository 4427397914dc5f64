#include "check/differential.h"

namespace dyndisp::check {

DiffReport diff_threads(const TrialConfig& config, const Toolbox& toolbox,
                        std::size_t threads) {
  const RunResult serial = run_plain(config, toolbox, 1);
  const RunResult parallel = run_plain(config, toolbox, threads);
  if (digest_run(serial) == digest_run(parallel)) return {};
  DiffReport report;
  report.ok = false;
  report.detail = "[differential-threads] threads=1: " + describe_run(serial) +
                  " | threads=" + std::to_string(threads) + ": " +
                  describe_run(parallel);
  return report;
}

}  // namespace dyndisp::check
