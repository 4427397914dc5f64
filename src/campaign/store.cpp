#include "campaign/store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "util/contract.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/table.h"

namespace dyndisp::campaign {

std::string record_to_jsonl(const TrialRecord& r) {
  std::ostringstream out;
  out.precision(17);  // max_digits10: wall_ms round-trips exactly
  out << '{' << "\"job\": " << r.job.index << ", \"id\": \""
      << json_escape(r.job.id()) << "\", \"spec_hash\": \""
      << json_escape(r.spec_hash) << "\", \"algorithm\": \""
      << json_escape(r.job.algorithm) << "\", \"adversary\": \""
      << json_escape(r.job.adversary) << "\", \"family\": \""
      << json_escape(r.job.family) << "\", \"placement\": \""
      << json_escape(r.job.placement) << "\", \"comm\": \""
      << json_escape(r.job.comm) << "\", \"n\": " << r.job.n
      << ", \"k\": " << r.job.k << ", \"groups\": " << r.job.groups
      << ", \"faults\": " << r.job.faults
      << ", \"max_rounds\": " << r.job.max_rounds
      << ", \"seed\": " << r.job.seed << ", \"ok\": "
      << (r.ok ? "true" : "false");
  if (!r.ok) out << ", \"error\": \"" << json_escape(r.error) << '"';
  out << ", \"dispersed\": " << (r.dispersed ? "true" : "false")
      << ", \"rounds\": " << r.rounds << ", \"moves\": " << r.moves
      << ", \"memory_bits\": " << r.memory_bits
      << ", \"max_occupied\": " << r.max_occupied
      << ", \"crashed\": " << r.crashed << ", \"wall_ms\": " << r.wall_ms
      << '}';
  return out.str();
}

namespace {

TrialRecord record_from_json(const JsonValue& v) {
  TrialRecord r;
  const auto u = [&v](const char* key) -> std::uint64_t {
    const JsonValue* f = v.find(key);
    return f ? f->as_uint() : 0;
  };
  r.job.index = static_cast<std::size_t>(u("job"));
  if (const JsonValue* f = v.find("spec_hash")) r.spec_hash = f->as_string();
  if (const JsonValue* f = v.find("algorithm"))
    r.job.algorithm = f->as_string();
  if (const JsonValue* f = v.find("adversary"))
    r.job.adversary = f->as_string();
  if (const JsonValue* f = v.find("family")) r.job.family = f->as_string();
  if (const JsonValue* f = v.find("placement"))
    r.job.placement = f->as_string();
  if (const JsonValue* f = v.find("comm")) r.job.comm = f->as_string();
  r.job.n = static_cast<std::size_t>(u("n"));
  r.job.k = static_cast<std::size_t>(u("k"));
  r.job.groups = static_cast<std::size_t>(u("groups"));
  r.job.faults = static_cast<std::size_t>(u("faults"));
  r.job.max_rounds = u("max_rounds");
  r.job.seed = u("seed");
  if (const JsonValue* f = v.find("ok")) r.ok = f->as_bool();
  if (const JsonValue* f = v.find("error")) r.error = f->as_string();
  if (const JsonValue* f = v.find("dispersed")) r.dispersed = f->as_bool();
  r.rounds = u("rounds");
  r.moves = u("moves");
  r.memory_bits = u("memory_bits");
  r.max_occupied = u("max_occupied");
  r.crashed = u("crashed");
  if (const JsonValue* f = v.find("wall_ms")) r.wall_ms = f->as_number();
  return r;
}

/// Tuple identity for grouping (everything but the seed).
std::string tuple_key(const JobSpec& job) {
  std::ostringstream out;
  out << job.algorithm << '|' << job.adversary << '|' << job.n << '|' << job.k
      << '|' << job.comm << '|' << job.faults;
  return out.str();
}

/// Byte length of the newline-terminated prefix of `path`: everything up to
/// and including the last '\n' (0 if the file has none). Bytes past it are a
/// torn final line from a killed run. On an I/O failure returns `size`
/// (i.e. "keep everything") so the caller never truncates valid records.
std::uintmax_t complete_prefix_size(const std::string& path,
                                    std::uintmax_t size) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return size;
  std::streamoff end = static_cast<std::streamoff>(size);
  char buf[4096];
  while (end > 0) {
    const std::streamoff begin =
        std::max<std::streamoff>(0, end - static_cast<std::streamoff>(sizeof buf));
    const std::streamoff len = end - begin;
    in.seekg(begin);
    in.read(buf, len);
    if (!in) return size;
    for (std::streamoff i = len - 1; i >= 0; --i)
      if (buf[i] == '\n') return static_cast<std::uintmax_t>(begin + i + 1);
    end = begin;
  }
  return 0;
}

}  // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

ResultStore::~ResultStore() {
  if (fd_ >= 0) ::close(fd_);
}

void ResultStore::initialize(const CampaignSpec& spec) {
  if (!std::filesystem::exists(spec_path())) {
    std::ofstream out(spec_path());
    out << spec.source_text();
    if (spec.source_text().empty() || spec.source_text().back() != '\n')
      out << '\n';
  }
}

std::vector<TrialRecord> ResultStore::load() const {
  std::vector<TrialRecord> records;
  std::ifstream in(results_path());
  if (!in) return records;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    try {
      records.push_back(record_from_json(JsonValue::parse(line)));
    } catch (const std::invalid_argument& e) {
      // A torn final line from a killed run is expected: everything before
      // it is valid and the interrupted trial re-runs on resume. A bad line
      // *followed by more records* is real corruption -- silently dropping
      // the tail would present a truncated set as complete.
      std::string rest;
      while (std::getline(in, rest)) {
        if (rest.find_first_not_of(" \t\r") != std::string::npos)
          throw std::runtime_error(
              results_path() + ":" + std::to_string(lineno) +
              ": unparsable record followed by more data (" + e.what() + ")");
      }
      break;
    }
  }
  return records;
}

// Campaign record I/O, never on the round loop. Marked as a boundary so the
// call graph's by-name resolution does not route the planner's
// MoverMap::append here.
DYNDISP_COLD
void ResultStore::append(const TrialRecord& record) {
  const std::string line = record_to_jsonl(record) + '\n';
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) {
    // A killed run can leave a torn final line. Appending after it would
    // fuse the new record onto the fragment, corrupting the line mid-file;
    // truncate back to the last complete line first.
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(results_path(), ec);
    if (!ec && size > 0) {
      const std::uintmax_t keep = complete_prefix_size(results_path(), size);
      if (keep < size) std::filesystem::resize_file(results_path(), keep);
    }
    // CLOEXEC: the service coordinator fork/execs workers; they must not
    // inherit (and hold open) the root store's append handle.
    fd_ = ::open(results_path().c_str(),
                 O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd_ < 0)
      throw std::runtime_error("cannot open " + results_path() +
                               " for append: " + std::strerror(errno));
  }
  // One write() per record: the line lands in the file in a single syscall,
  // so concurrent appenders (worker threads sharing this store) never
  // interleave bytes, and a kill between records never tears more than the
  // final line.
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("write to " + results_path() +
                               " failed: " + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  // Durable mode pushes the record to disk before the job is acknowledged:
  // a SIGKILL after append() then loses nothing, and a kill *during* it at
  // most the torn line the recovery path truncates.
  if (durable_ && ::fsync(fd_) != 0)
    throw std::runtime_error("fsync of " + results_path() +
                             " failed: " + std::strerror(errno));
}

std::size_t ResultStore::replace_all(std::vector<TrialRecord> records) {
  // stable_sort keeps input order among duplicates of a job, so "first
  // occurrence wins" holds as documented (duplicates arise when a crashed
  // worker persisted a record the coordinator never saw acked and the job
  // was re-run elsewhere; payloads agree, wall_ms may not).
  std::stable_sort(records.begin(), records.end(),
            [](const TrialRecord& a, const TrialRecord& b) {
              if (a.job.index != b.job.index) return a.job.index < b.job.index;
              return a.job.seed < b.job.seed;
            });
  const std::string tmp = results_path() + ".tmp";
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Close the append handle so the rename below is not racing buffered
    // writes; the next append() reopens against the merged file.
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  std::size_t written = 0;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + tmp + " for write");
    std::string last_id;
    for (const TrialRecord& r : records) {
      const std::string id = r.job.id();
      if (!last_id.empty() && id == last_id) continue;  // dedupe by job id
      out << record_to_jsonl(r) << '\n';
      last_id = id;
      ++written;
    }
    out.flush();
    if (!out) throw std::runtime_error("write to " + tmp + " failed");
  }
  if (durable_) {
    // Make the merged contents durable before it replaces the old file.
    const int tfd = ::open(tmp.c_str(), O_RDONLY);
    if (tfd >= 0) {
      ::fsync(tfd);
      ::close(tfd);
    }
  }
  std::filesystem::rename(tmp, results_path());
  return written;
}

void ResultStore::record_run(const CampaignSpec& spec, std::size_t total_jobs,
                             std::size_t completed,
                             const RunCounters& latest) {
  std::vector<RunCounters> runs = run_history();
  runs.push_back(latest);

  std::ofstream out(manifest_path());
  JsonWriter w(out);
  w.begin_object();
  w.member("campaign", spec.name());
  w.member("spec_hash", spec.hash());
  w.member("seeds", static_cast<std::uint64_t>(spec.seeds()));
  w.member("base_seed", spec.base_seed());
  w.member("total_jobs", static_cast<std::uint64_t>(total_jobs));
  w.member("completed", static_cast<std::uint64_t>(completed));
  w.key("runs");
  w.begin_array();
  for (const RunCounters& run : runs) {
    w.begin_object();
    w.member("executed", static_cast<std::uint64_t>(run.executed));
    w.member("skipped", static_cast<std::uint64_t>(run.skipped));
    w.member("failed", static_cast<std::uint64_t>(run.failed));
    w.member("wall_ms", run.wall_ms);
    w.member("threads", static_cast<std::uint64_t>(run.threads));
    w.member("workers", static_cast<std::uint64_t>(run.workers));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

std::vector<RunCounters> ResultStore::run_history() const {
  std::vector<RunCounters> runs;
  std::ifstream in(manifest_path());
  if (!in) return runs;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    const JsonValue doc = JsonValue::parse(buffer.str());
    if (const JsonValue* arr = doc.find("runs")) {
      for (const JsonValue& item : arr->items()) {
        RunCounters run;
        if (const JsonValue* f = item.find("executed"))
          run.executed = static_cast<std::size_t>(f->as_uint());
        if (const JsonValue* f = item.find("skipped"))
          run.skipped = static_cast<std::size_t>(f->as_uint());
        if (const JsonValue* f = item.find("failed"))
          run.failed = static_cast<std::size_t>(f->as_uint());
        if (const JsonValue* f = item.find("wall_ms"))
          run.wall_ms = f->as_number();
        if (const JsonValue* f = item.find("threads"))
          run.threads = static_cast<std::size_t>(f->as_uint());
        if (const JsonValue* f = item.find("workers"))
          run.workers = static_cast<std::size_t>(f->as_uint());
        runs.push_back(run);
      }
    }
  } catch (const std::invalid_argument&) {
    // Corrupt manifest: treat as no history rather than blocking a resume.
  }
  return runs;
}

std::vector<GroupSummary> aggregate(std::vector<TrialRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const TrialRecord& a, const TrialRecord& b) {
              if (a.job.index != b.job.index) return a.job.index < b.job.index;
              return a.job.seed < b.job.seed;
            });
  std::vector<GroupSummary> groups;
  for (const TrialRecord& r : records) {
    const std::string key = tuple_key(r.job);
    GroupSummary* group = nullptr;
    for (GroupSummary& g : groups)
      if (tuple_key(g.tuple) == key) {
        group = &g;
        break;
      }
    if (group == nullptr) {
      groups.emplace_back();
      group = &groups.back();
      group->tuple = r.job;
    }
    ++group->trials;
    group->wall_ms += r.wall_ms;
    if (!r.ok) {
      ++group->failed;
      continue;
    }
    if (r.dispersed) ++group->dispersed;
    group->rounds.add(static_cast<double>(r.rounds));
    group->moves.add(static_cast<double>(r.moves));
    group->memory_bits.add(static_cast<double>(r.memory_bits));
    group->max_occupied.add(static_cast<double>(r.max_occupied));
  }
  return groups;
}

std::string render_report(const std::string& campaign_name,
                          const std::vector<GroupSummary>& groups) {
  AsciiTable table({"algorithm", "adversary", "n", "k", "comm", "faults",
                    "trials", "dispersed", "rounds mean/max", "moves mean",
                    "mem bits max", "failed"});
  table.set_title("campaign: " + campaign_name);
  for (const GroupSummary& g : groups) {
    table.add_row(
        {g.tuple.algorithm, g.tuple.adversary, std::to_string(g.tuple.n),
         std::to_string(g.tuple.k), g.tuple.comm,
         std::to_string(g.tuple.faults), std::to_string(g.trials),
         std::to_string(g.dispersed) + "/" + std::to_string(g.trials),
         g.rounds.empty()
             ? "-"
             : fmt_double(g.rounds.mean(), 1) + " / " +
                   fmt_double(g.rounds.max(), 0),
         g.moves.empty() ? "-" : fmt_double(g.moves.mean(), 1),
         g.memory_bits.empty() ? "-" : fmt_double(g.memory_bits.max(), 0),
         std::to_string(g.failed)});
  }
  return table.render();
}

void write_report_csv(const std::string& path,
                      const std::vector<GroupSummary>& groups) {
  CsvWriter csv(path,
                {"algorithm", "adversary", "n", "k", "comm", "faults",
                 "trials", "dispersed", "rounds_mean", "rounds_max",
                 "moves_mean", "memory_bits_max", "failed", "wall_ms"});
  for (const GroupSummary& g : groups) {
    csv.add_row({g.tuple.algorithm, g.tuple.adversary,
                 std::to_string(g.tuple.n), std::to_string(g.tuple.k),
                 g.tuple.comm, std::to_string(g.tuple.faults),
                 std::to_string(g.trials), std::to_string(g.dispersed),
                 g.rounds.empty() ? "" : fmt_double(g.rounds.mean(), 4),
                 g.rounds.empty() ? "" : fmt_double(g.rounds.max(), 0),
                 g.moves.empty() ? "" : fmt_double(g.moves.mean(), 4),
                 g.memory_bits.empty() ? ""
                                       : fmt_double(g.memory_bits.max(), 0),
                 std::to_string(g.failed), fmt_double(g.wall_ms, 2)});
  }
}

}  // namespace dyndisp::campaign
