#include "campaign/service/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "campaign/service/shard.h"

namespace dyndisp::campaign::service {

namespace {

constexpr long kNoJob = -1;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             // NOLINTNEXTLINE-dyndisp(determinism-wallclock): feeds only
             // the manifest's reporting-only wall_ms counter, never a
             // result digest or record field.
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Restores the previous SIGPIPE disposition on scope exit. A worker dying
/// between poll() and our write() to its stdin must surface as EPIPE, not
/// kill the coordinator.
class SigpipeGuard {
 public:
  SigpipeGuard() { previous_ = signal(SIGPIPE, SIG_IGN); }
  ~SigpipeGuard() { signal(SIGPIPE, previous_); }

 private:
  void (*previous_)(int);
};

std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0)
    throw std::runtime_error(
        "cannot resolve /proc/self/exe; pass the worker binary explicitly");
  buf[n] = '\0';
  return buf;
}

struct WorkerProc {
  pid_t pid = -1;
  int in_fd = -1;          ///< Coordinator -> worker stdin (job indices).
  int out_fd = -1;         ///< Worker stdout -> coordinator (acks).
  std::size_t shard = 0;   ///< Shard-directory index this worker appends to.
  long in_flight = kNoJob;  ///< Dispatched, unacked job index.
  std::string buf;         ///< Partial ack line.
  bool closed = false;     ///< Stdin closed: worker is draining to exit.

  bool alive() const { return pid > 0; }
};

struct AckLine {
  std::size_t index = 0;
  bool ok = false;
  bool dispersed = false;
  std::uint64_t rounds = 0;
};

AckLine parse_ack(const std::string& line) {
  std::istringstream ss(line);
  std::string tag, okword;
  AckLine ack;
  int dispersed = 0;
  ss >> tag >> ack.index >> okword >> dispersed >> ack.rounds;
  if (!ss || tag != "done" || (okword != "ok" && okword != "fail"))
    throw std::runtime_error("coordinator: bad worker ack line '" + line +
                             "'");
  ack.ok = okword == "ok";
  ack.dispersed = dispersed != 0;
  return ack;
}

/// The full coordinator state for one run, so helpers don't take ten
/// parameters each.
class Coordinator {
 public:
  Coordinator(const CampaignSpec& spec, ResultStore& store,
              const CoordinatorOptions& opts)
      : spec_(spec), store_(store), opts_(opts), jobs_(spec.expand()) {}

  ServiceOutcome run();

 private:
  void scan_existing();
  WorkerProc spawn(std::size_t shard_index, bool first_incarnation);
  void dispatch(WorkerProc& w);
  void close_stdin(WorkerProc& w);
  void handle_readable(WorkerProc& w);
  void handle_death(WorkerProc& w);
  void report(const std::string& id, bool ok, bool dispersed,
              std::uint64_t rounds);
  bool any_in_flight() const;

  const CampaignSpec& spec_;
  ResultStore& store_;
  const CoordinatorOptions& opts_;
  const std::vector<JobSpec> jobs_;
  std::string spec_hash_;
  std::string binary_;
  std::size_t fleet_ = 0;

  std::deque<std::size_t> pending_;
  /// Crashes consumed per job index (ordered map: deterministic, and never
  /// iterated for output anyway).
  std::map<std::size_t, std::size_t> attempts_;
  std::vector<WorkerProc> workers_;
  bool worker0_spawned_ = false;  ///< kill_after applies only to the first.

  std::size_t skipped_ = 0;
  std::size_t executed_ = 0;       ///< Acked + recovered this invocation.
  std::size_t failed_trials_ = 0;  ///< ok=false records (acked or recovered).
  std::size_t crashes_ = 0;
  std::vector<std::string> poisoned_;
};

void Coordinator::scan_existing() {
  spec_hash_ = spec_.hash();
  // Jobs already persisted -- in the merged root store or in shard stores a
  // killed coordinator left behind -- are never re-run.
  //
  // Determinism audit (dyndisp_lint determinism-unordered-iter): `done` is
  // membership-only (count() probes); the pending queue below preserves the
  // expansion's job order.
  std::unordered_set<std::string> done;
  std::vector<TrialRecord> existing = store_.load();
  std::vector<TrialRecord> leftovers = load_shard_records(store_.dir());
  existing.insert(existing.end(), std::make_move_iterator(leftovers.begin()),
                  std::make_move_iterator(leftovers.end()));
  for (const TrialRecord& record : existing) {
    if (record.spec_hash != spec_hash_)
      throw std::invalid_argument(
          "result store " + store_.dir() + " holds records of a different "
          "campaign (spec hash " + record.spec_hash + " != " + spec_hash_ +
          ")");
    done.insert(record.job.id());
  }
  for (const JobSpec& job : jobs_)
    if (done.count(job.id()))
      ++skipped_;
    else
      pending_.push_back(job.index);
}

WorkerProc Coordinator::spawn(std::size_t shard_index,
                              bool first_incarnation) {
  std::vector<std::string> args;
  args.push_back(binary_);
  args.push_back("worker");
  args.push_back("--spec");
  args.push_back(store_.spec_path());
  args.push_back("--store");
  args.push_back(shard_dir(store_.dir(), shard_index));
  if (opts_.seeds != 0) {
    args.push_back("--seeds");
    args.push_back(std::to_string(opts_.seeds));
  }
  if (!opts_.record_timing) args.push_back("--no-timing");
  if (opts_.kill_after != 0 && shard_index == 0 && first_incarnation) {
    args.push_back("--die-after");
    args.push_back(std::to_string(opts_.kill_after));
  }
  if (opts_.die_on_index != std::numeric_limits<std::size_t>::max()) {
    args.push_back("--die-on");
    args.push_back(std::to_string(opts_.die_on_index));
  }

  // Parent-side pipe ends are CLOEXEC so a later worker's fork does not
  // inherit (and hold open) this worker's stdin write end -- that would
  // defeat EOF-as-shutdown.
  int to_child[2], from_child[2];
  if (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(from_child, O_CLOEXEC) != 0)
    throw std::runtime_error(std::string("pipe2 failed: ") +
                             std::strerror(errno));
  const pid_t pid = fork();
  if (pid < 0)
    throw std::runtime_error(std::string("fork failed: ") +
                             std::strerror(errno));
  if (pid == 0) {
    // Child: wire the pipes to stdin/stdout (dup2 clears CLOEXEC on the
    // duplicates) and become the worker.
    if (dup2(to_child[0], STDIN_FILENO) < 0 ||
        dup2(from_child[1], STDOUT_FILENO) < 0)
      _exit(127);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(binary_.c_str(), argv.data());
    _exit(127);  // exec failed; parent sees a crash and retries elsewhere
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  WorkerProc w;
  w.pid = pid;
  w.in_fd = to_child[1];
  w.out_fd = from_child[0];
  w.shard = shard_index;
  return w;
}

void Coordinator::dispatch(WorkerProc& w) {
  if (pending_.empty()) {
    close_stdin(w);
    return;
  }
  const std::size_t job = pending_.front();
  pending_.pop_front();
  w.in_flight = static_cast<long>(job);
  const std::string line = std::to_string(job) + "\n";
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(w.in_fd, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      // EPIPE: the worker died under us. Leave in_flight set; the EOF on
      // its stdout reaches handle_death, which requeues or recovers it.
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

void Coordinator::close_stdin(WorkerProc& w) {
  if (w.closed) return;
  if (w.in_fd >= 0) ::close(w.in_fd);
  w.in_fd = -1;
  w.closed = true;
}

void Coordinator::report(const std::string& id, bool ok, bool dispersed,
                         std::uint64_t rounds) {
  const std::size_t completed = skipped_ + executed_;
  if (opts_.progress != nullptr) {
    (*opts_.progress)
        << "[" << completed << "/" << jobs_.size() << "] " << id
        << (ok ? (dispersed
                      ? "  dispersed in " + std::to_string(rounds) + " rounds"
                      : "  NOT dispersed (" + std::to_string(rounds) +
                            " rounds)")
                : std::string("  FAILED (see record)"))
        << "\n";
    opts_.progress->flush();
  }
}

void Coordinator::handle_readable(WorkerProc& w) {
  char buf[4096];
  const ssize_t n = ::read(w.out_fd, buf, sizeof buf);
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN) return;
    throw std::runtime_error(std::string("read from worker failed: ") +
                             std::strerror(errno));
  }
  if (n == 0) {
    handle_death(w);
    return;
  }
  w.buf.append(buf, static_cast<std::size_t>(n));
  std::size_t pos;
  while ((pos = w.buf.find('\n')) != std::string::npos) {
    const std::string line = w.buf.substr(0, pos);
    w.buf.erase(0, pos + 1);
    const AckLine ack = parse_ack(line);
    if (ack.index >= jobs_.size())
      throw std::runtime_error("coordinator: ack job index out of range");
    if (w.in_flight == kNoJob ||
        ack.index != static_cast<std::size_t>(w.in_flight))
      throw std::runtime_error("coordinator: ack for job " +
                               std::to_string(ack.index) +
                               " does not match the in-flight job");
    w.in_flight = kNoJob;
    ++executed_;
    if (!ack.ok) ++failed_trials_;
    report(jobs_[ack.index].id(), ack.ok, ack.dispersed, ack.rounds);
    dispatch(w);
  }
}

void Coordinator::handle_death(WorkerProc& w) {
  if (w.out_fd >= 0) ::close(w.out_fd);
  w.out_fd = -1;
  close_stdin(w);
  int status = 0;
  while (waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
  }
  const bool clean_exit =
      WIFEXITED(status) && WEXITSTATUS(status) == 0 && w.in_flight == kNoJob;
  const std::size_t shard_index = w.shard;
  const long in_flight = w.in_flight;
  w.pid = -1;
  w.in_flight = kNoJob;
  if (clean_exit) return;

  ++crashes_;
  if (in_flight != kNoJob) {
    const std::size_t job = static_cast<std::size_t>(in_flight);
    const std::string id = jobs_[job].id();
    // The worker appends durably BEFORE acking, so a record present in its
    // shard store is a finished job whose ack was lost -- recover it
    // instead of re-running.
    bool recovered = false;
    {
      ResultStore shard(shard_dir(store_.dir(), shard_index));
      for (const TrialRecord& record : shard.load()) {
        if (record.job.id() != id) continue;
        ++executed_;
        if (!record.ok) ++failed_trials_;
        report(id, record.ok, record.dispersed, record.rounds);
        recovered = true;
        break;
      }
    }
    if (!recovered) {
      std::size_t& used = attempts_[job];
      ++used;
      if (used >= opts_.max_attempts) {
        // Crashed a worker on every attempt: deterministic poison. Drop it
        // so the rest of the campaign completes; the outcome lists it and
        // the exit code goes nonzero.
        poisoned_.push_back(id);
        if (opts_.progress != nullptr) {
          (*opts_.progress) << "POISON " << id << "  crashed "
                            << std::to_string(used) << " workers, dropped\n";
          opts_.progress->flush();
        }
      } else {
        // Front of the queue: the retry should not wait behind the whole
        // backlog, and front placement keeps requeue order deterministic.
        pending_.push_front(job);
      }
    }
  }
  // Keep the fleet at strength while work remains. The replacement binds to
  // the same shard directory -- its store already holds the dead worker's
  // durable records (torn final line truncated on first append) and simply
  // continues the shard.
  if (!pending_.empty()) {
    WorkerProc replacement = spawn(shard_index, /*first_incarnation=*/false);
    dispatch(replacement);
    for (WorkerProc& slot : workers_)
      if (!slot.alive() && slot.shard == shard_index) {
        slot = std::move(replacement);
        return;
      }
    workers_.push_back(std::move(replacement));
  }
}

bool Coordinator::any_in_flight() const {
  for (const WorkerProc& w : workers_)
    if (w.alive() && w.in_flight != kNoJob) return true;
  return false;
}

ServiceOutcome Coordinator::run() {
  // NOLINTNEXTLINE-dyndisp(determinism-wallclock): manifest counter only.
  const auto start = std::chrono::steady_clock::now();
  binary_ = opts_.worker_binary.empty() ? self_exe_path()
                                        : opts_.worker_binary;
  scan_existing();
  store_.initialize(spec_);

  fleet_ = resolve_auto_threads(opts_.workers);
  if (fleet_ > pending_.size() && !pending_.empty()) fleet_ = pending_.size();

  SigpipeGuard sigpipe;
  if (!pending_.empty()) {
    workers_.reserve(fleet_);
    for (std::size_t i = 0; i < fleet_; ++i) {
      workers_.push_back(spawn(i, /*first_incarnation=*/true));
      dispatch(workers_.back());
    }
    while (!pending_.empty() || any_in_flight()) {
      std::vector<pollfd> fds;
      std::vector<std::size_t> owners;
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        if (!workers_[i].alive()) continue;
        fds.push_back(pollfd{workers_[i].out_fd, POLLIN, 0});
        owners.push_back(i);
      }
      if (fds.empty()) {
        // Every worker is dead but jobs remain (crash cascade): restart a
        // fleet sized to what's left and keep going.
        const std::size_t n = std::min(fleet_, pending_.size());
        for (std::size_t i = 0; i < n; ++i) {
          workers_.push_back(spawn(i, /*first_incarnation=*/false));
          dispatch(workers_.back());
        }
        continue;
      }
      const int rc = poll(fds.data(), fds.size(), -1);
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("poll failed: ") +
                                 std::strerror(errno));
      }
      for (std::size_t i = 0; i < fds.size(); ++i)
        if (fds[i].revents != 0) handle_readable(workers_[owners[i]]);
    }
  }

  // Drain: close every stdin; workers exit on EOF.
  for (WorkerProc& w : workers_) {
    if (!w.alive()) continue;
    close_stdin(w);
    int status = 0;
    while (waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    w.pid = -1;
    if (w.out_fd >= 0) ::close(w.out_fd);
    w.out_fd = -1;
  }

  // Deterministic merge: shard records + whatever the root already held,
  // rewritten in job order. Bitwise identical to a single-process run of
  // the same jobs regardless of fleet size, crashes, or completion order.
  merge_shards(store_, /*remove_shards=*/true);

  ServiceOutcome outcome;
  outcome.workers = fleet_;
  outcome.worker_crashes = crashes_;
  outcome.poisoned_jobs = poisoned_;
  outcome.campaign.total = jobs_.size();
  outcome.campaign.executed = executed_;
  outcome.campaign.skipped = skipped_;
  outcome.campaign.failed = failed_trials_;
  outcome.campaign.completed = skipped_ + executed_;
  outcome.campaign.wall_ms = ms_since(start);
  outcome.campaign.threads = 1;  // each worker runs trials single-threaded

  RunCounters counters;
  counters.executed = outcome.campaign.executed;
  counters.skipped = outcome.campaign.skipped;
  counters.failed = outcome.campaign.failed;
  counters.wall_ms = outcome.campaign.wall_ms;
  counters.threads = 1;
  counters.workers = fleet_;
  store_.record_run(spec_, outcome.campaign.total, outcome.campaign.completed,
                    counters);
  return outcome;
}

}  // namespace

ServiceOutcome run_coordinator(const CampaignSpec& spec, ResultStore& store,
                               const CoordinatorOptions& options) {
  if (options.max_attempts == 0)
    throw std::invalid_argument("max_attempts must be >= 1");
  Coordinator coordinator(spec, store, options);
  return coordinator.run();
}

}  // namespace dyndisp::campaign::service
