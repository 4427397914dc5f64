#include "campaign/service/worker.h"

#include <csignal>

#include <exception>
#include <stdexcept>
#include <vector>

#include "campaign/scheduler.h"
#include "campaign/spec.h"
#include "campaign/store.h"

namespace dyndisp::campaign::service {

int run_worker(const WorkerOptions& opts, std::istream& in,
               std::ostream& out) {
  CampaignSpec spec = CampaignSpec::parse_file(opts.spec_path);
  if (opts.seeds != 0) spec.set_seeds(opts.seeds);
  const std::string spec_hash = spec.hash();
  const std::vector<JobSpec> jobs = spec.expand();

  ResultStore store(opts.store_dir);
  store.set_durable(true);

  std::size_t appended = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::size_t index = 0;
    try {
      index = static_cast<std::size_t>(std::stoull(line));
    } catch (const std::exception&) {
      throw std::runtime_error("worker: bad job index line '" + line + "'");
    }
    if (index >= jobs.size())
      throw std::runtime_error("worker: job index " + std::to_string(index) +
                               " out of range (" +
                               std::to_string(jobs.size()) + " jobs)");
    if (index == opts.die_on_index) raise(SIGKILL);

    const TrialRecord record =
        run_job(jobs[index], spec_hash, opts.record_timing);
    store.append(record);
    ++appended;
    // Crash window under test: the record is durable but unacked; the
    // coordinator must recover it from the shard store instead of
    // re-running the job.
    if (opts.die_after != 0 && appended >= opts.die_after) raise(SIGKILL);

    out << "done " << index << (record.ok ? " ok " : " fail ")
        << (record.dispersed ? 1 : 0) << ' ' << record.rounds << '\n';
    out.flush();
    if (!out) return 1;  // coordinator hung up mid-campaign
  }
  return 0;
}

}  // namespace dyndisp::campaign::service
