// Round-time perf harness: wall-clock cost of simulating Algorithm 4 per
// robot-round, across adversaries, scales and compute-phase thread counts,
// through the engine's one round loop. Unlike the theorem benches this one
// makes no claim about the paper -- it tracks the ENGINE, so perf
// regressions in the round hot path (packet assembly, state serialization,
// planning, cross-round reuse, view materialization) show up as a number a
// CI job or a human can diff across commits. `--json` writes
// BENCH_roundtime.json, a machine-readable sibling of the ASCII table
// (schema in README.md).
//
// The adversary set spans the reuse spectrum: `random` / `star-star` /
// `ring-worst` rewire every round (cross-round reuse cannot fire there),
// while `static`, `t-interval`, and `scripted` replay graphs across rounds,
// which is where the graph-reuse hint and the StructureCache fire.
// `path-trap` and `clique-trap` (Theorems 1 and 2) dry-run every robot on
// candidate graphs each round, so their rows time the plan-probe path. A
// mega-scale section (random adversary, random placement, k up to 10^6)
// exercises the regime the struct-of-arrays round core and the packet arena
// were built for; heap allocations are counted per row (a process-global
// operator-new counter).
//
//   bench_roundtime [--json] [--out=FILE] [--threads=1,2,4] [--reps=N]
//                   [--smoke] [--mega] [--mega-smoke] [--validate[=FILE]]
//
// Each (adversary, k, threads) tuple is one row. Thread counts above the
// host's hardware threads are dropped (an oversubscribed row measures the
// scheduler, not the engine), and every row records that count as nproc.
// The families sweep
// k = 64..512, and `ring-worst`, whose adversary is O(n) per round, also
// runs k = 1024 and 4096. The trap families, which probe O(alpha) or two
// candidates per round, stop at k = 256. The k=10^6 mega row runs
// a single rep (its minutes-long wall time dwarfs the scheduler jitter the
// reps exist to smooth out). `--smoke` shrinks the sweep to
// one tiny size per adversary plus the k=4096 mega row (CI-friendly:
// seconds, not minutes). `--mega` appends the k=10^6 headline row to the mega section
// (several minutes and >1 GB RSS, so scripts/repro.sh gates it behind
// DYNDISP_MEGA=1; see docs/PERFORMANCE.md). `--mega-smoke` instead runs
// ONLY the mega spec at k=65536 (default engine, threads=1) and exits
// nonzero if the run misses its heap-allocation or peak-RSS ceilings --
// the CI-sized canary for the mega row's memory diet, deterministic where
// wall-clock on shared runners is not. Bare `--validate` checks, after the
// sweep, that the rows of every (adversary, k) -- one per thread count --
// agreed on all round observables (robot_rounds, rounds, packet_mbits,
// dispersed): the engine claims bitwise identity at any thread count, and
// this is that claim at bench scale. `--validate=FILE` parses a previously
// written JSON file, checks it against schema v11 (field presence/types,
// the same thread-count agreement, graph reuse nonzero on the
// replay-heavy rows), and exits -- no timing assertions, so it is safe on
// loaded CI machines.
//
// Every row carries the engine's per-phase wall-time buckets (phase_*_ms
// from RoundLoopStats: graph_build / broadcast / plan / compute / move),
// taken from the same repetition as its wall_ms, so the phases of a row
// add up to (slightly less than) its wall time. Schema v7 dropped v6's
// structure_cache column along with the engine option it described; v8
// dropped before_copies_skipped, which only ever equalled the row's rounds;
// v9 added nproc; v10 dropped state_list_rounds_skipped, which only ever
// equalled the row's rounds or 0; v11 dropped broadcasts_reused,
// broadcast_deltas, packets_copied and packets_rebuilt with the broadcast
// reuse and delta routes they counted.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/registry.h"
#include "core/dispersion.h"
#include "core/structure_cache.h"
#include "dynamic/random_adversary.h"
#include "dynamic/scripted_adversary.h"
#include "dynamic/t_interval_adversary.h"
#include "robots/configuration.h"
#include "sim/engine.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/memprobe.h"
#include "util/table.h"

// Heap-allocation probe: the shared util/memprobe.h counter with this
// binary's operator-new hook installed (see that header for why the hook
// is per-binary). The counter is the measurement the packet arena exists
// to improve; the delta across an engine.run() is the run's allocation
// count.
DYNDISP_MEMPROBE_DEFINE_GLOBAL_NEW

namespace {

using namespace dyndisp;

constexpr std::uint64_t kSchemaVersion = 11;
constexpr std::uint64_t kSeed = 11;

/// k at and above which a row runs a single rep: the mega headline row.
constexpr std::size_t kSingleRepK = 1000000;

/// --mega-smoke ceilings for the k=65536 mega row (default corner,
/// threads=1). Allocation counts are deterministic (the memprobe counter
/// is exact) and peak RSS at this scale is dominated by n-proportional
/// state, so both are stable across machines, and only a real regression
/// trips them, not noise. The RSS ceiling is ~2x the measured 74 MB. The
/// allocation ceiling sits ~1.13x above the measured 691: a view fill that
/// allocates per robot again must trip it (the per-robot empty-port
/// vectors measured 187,120), as must graph rows allocated per node (the
/// per-node row layout measured 709,963), a planner workspace that stops
/// reusing its buffers (6.1M), a reintroduced retained copy or a per-round
/// allocation leak.
constexpr std::size_t kMegaSmokeK = 65536;
constexpr std::uint64_t kMegaSmokeAllocCeiling = 780;
constexpr double kMegaSmokeRssCeilingMb = 150;

struct Row {
  std::string adversary;
  std::size_t k = 0;
  std::size_t n = 0;
  std::size_t threads = 1;
  std::size_t nproc = 1;  ///< Hardware threads of the host that ran it.
  Round rounds = 0;
  bool dispersed = false;
  std::uint64_t robot_rounds = 0;
  double wall_ms = 0;
  double robot_rounds_per_sec = 0;
  double packet_mbits = 0;
  double peak_rss_mb = 0;
  std::uint64_t heap_allocs = 0;
  RoundLoopStats stats;
  core::StructureCacheStats sc;
};

/// One bench row family: which adversary, how robots are placed, and how the
/// node count scales with k. The replay-heavy rows use a rooted start on
/// n = 3k: the run takes many rounds, most robots settle early and stay put,
/// and only the moving frontier dirties nodes -- the regime the graph-reuse
/// hint and the structure cache target.
struct AdversarySpec {
  const char* name;       // registry adversary name, or "scripted"
  const char* placement;  // registry placement name
  std::size_t n_num, n_den;  // n = k * n_num / n_den
  bool reuse_heavy;       // replays graphs; graph_reuses must be nonzero
  bool extended = false;  // also runs the kExtendedSizes rows (full sweep)
  std::size_t max_k = 0;  // largest k of the full sweep (0: no cap)
};

/// Extra sizes for the families whose per-round adversary cost is O(n):
/// the worst-edge ring scores its cut in one scan, so its rows reach k in
/// the thousands where the other families stop at 512.
constexpr std::size_t kExtendedSizes[] = {1024, 4096};

constexpr AdversarySpec kSpecs[] = {
    {"random", "rooted", 3, 2, false},
    {"star-star", "rooted", 3, 2, false},
    {"ring-worst", "rooted", 3, 2, false, /*extended=*/true},
    {"static", "rooted", 3, 1, true},
    {"t-interval", "rooted", 3, 1, true},
    {"scripted", "rooted", 3, 1, true},
    {"path-trap", "rooted", 3, 2, false, false, /*max_k=*/256},
    {"clique-trap", "rooted", 3, 2, false, false, /*max_k=*/256},
};

/// The mega-scale section: the random adversary rewires every round, the
/// random placement scatters robots so the first rounds carry giant
/// components, and k reaches the 10^5 regime the round core targets.
/// Runs at threads=1 only -- the headline claim is single-threaded.
constexpr AdversarySpec kMegaSpec = {"random", "random", 3, 2, false};

/// Process-wide peak RSS in MB. Monotone high-water mark for the WHOLE
/// process, so within one bench invocation only the first row to touch a
/// new peak moves it; it is recorded per row as an upper bound and is
/// meaningful mainly on the mega rows, which dwarf everything before them.
double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

std::unique_ptr<Adversary> make_adversary(const std::string& name,
                                          std::size_t n) {
  const campaign::Registry& registry = campaign::Registry::instance();
  if (name == "scripted") {
    // A three-line script, then the repeat-last horizon: rounds 0..2 churn,
    // everything after round 2 replays script.back() forever.
    std::vector<Graph> script;
    for (std::uint64_t s = 1; s <= 3; ++s)
      script.push_back(registry.family("random", n, kSeed + s));
    return std::make_unique<ScriptedAdversary>(std::move(script));
  }
  if (name == "t-interval") {
    // Wider window than the registry's T=4: with T=8, 7 of every 8 rounds
    // replay the window's graph, which is the regime this row measures.
    return std::make_unique<TIntervalAdversary>(
        std::make_unique<RandomAdversary>(n, n / 4, kSeed), 8);
  }
  return registry.adversary(name, "random", n, kSeed);
}

/// The host's hardware threads (at least 1).
std::size_t host_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

Row run(const AdversarySpec& spec, std::size_t k, std::size_t threads,
        std::size_t reps) {
  Row row;
  row.adversary = spec.name;
  row.k = k;
  row.threads = threads;
  row.nproc = host_threads();
  // Median-free but repeatable: take the best of `reps` runs so a one-off
  // scheduler hiccup does not masquerade as a regression.
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto adv = make_adversary(spec.name, k * spec.n_num / spec.n_den);
    // Families may round the requested size; place on the graph's actual n.
    const std::size_t n = adv->node_count();
    Configuration initial =
        campaign::Registry::instance().placement(spec.placement, n, k,
                                                 /*groups=*/3, kSeed);
    EngineOptions opt;
    opt.max_rounds = 10 * k;
    opt.threads = threads;
    // dispersion_factory_memoized()'s construction, with the caches held
    // here so the structure-cache counters are this run's alone.
    auto cache = std::make_shared<core::PlanCache>();
    cache->set_structure_cache(std::make_shared<core::StructureCache>());
    Engine engine(*adv, std::move(initial),
                  [cache](RobotId id, std::size_t robots) {
                    return std::make_unique<core::DispersionRobot>(id, robots,
                                                                   cache);
                  },
                  opt);
    const std::uint64_t allocs_before = dyndisp::memprobe::allocation_count();
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult r = engine.run();
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t allocs =
        dyndisp::memprobe::allocation_count() - allocs_before;
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    // The phase buckets come from the rep that set wall_ms, so a row's
    // phases always describe the run its wall time measured.
    if (rep == 0 || ms < row.wall_ms) {
      row.wall_ms = ms;
      row.stats = r.stats;
      row.sc = cache->structure_cache()->stats();
    }
    // The round loop is deterministic, so rep 0 already warmed every
    // process-global cache; take the min so one-time warmup allocations do
    // not inflate the steady-state count.
    if (rep == 0 || allocs < row.heap_allocs) row.heap_allocs = allocs;
    row.n = n;
    row.rounds = r.rounds;
    row.dispersed = r.dispersed;
    row.robot_rounds = static_cast<std::uint64_t>(r.rounds) * k;
    row.packet_mbits = static_cast<double>(r.packet_bits_sent) / 1e6;
  }
  row.peak_rss_mb = peak_rss_mb();
  row.robot_rounds_per_sec =
      row.wall_ms > 0 ? 1000.0 * static_cast<double>(row.robot_rounds) /
                            row.wall_ms
                      : 0;
  return row;
}

std::vector<std::size_t> parse_threads(const std::string& spec) {
  std::vector<std::size_t> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    unsigned long t = 0;
    try {
      std::size_t pos = 0;
      t = std::stoul(item, &pos);
      if (pos != item.size()) throw std::invalid_argument(item);
    } catch (const std::exception&) {
      throw std::invalid_argument("--threads expects integers, got '" + item +
                                  "'");
    }
    if (t == 0) throw std::invalid_argument("--threads values must be >= 1");
    out.push_back(t);
  }
  if (out.empty()) throw std::invalid_argument("--threads list is empty");
  std::erase_if(out, [](std::size_t t) {
    if (t <= host_threads()) return false;
    std::fprintf(stderr, "note: --threads=%zu dropped (nproc %zu)\n", t,
                 host_threads());
    return true;
  });
  if (out.empty())
    throw std::invalid_argument("--threads: no count within nproc");
  return out;
}

void write_json(const std::vector<Row>& rows, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  JsonWriter w(out);
  w.begin_object();
  w.member("bench", "roundtime");
  w.member("schema_version", kSchemaVersion);
  w.key("results");
  w.begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.member("adversary", r.adversary);
    w.member("k", static_cast<std::uint64_t>(r.k));
    w.member("n", static_cast<std::uint64_t>(r.n));
    w.member("threads", static_cast<std::uint64_t>(r.threads));
    w.member("nproc", static_cast<std::uint64_t>(r.nproc));
    w.member("rounds", static_cast<std::uint64_t>(r.rounds));
    w.member("dispersed", r.dispersed);
    w.member("robot_rounds", r.robot_rounds);
    w.member("wall_ms", r.wall_ms);
    w.member("robot_rounds_per_sec", r.robot_rounds_per_sec);
    w.member("packet_mbits", r.packet_mbits);
    w.member("peak_rss_mb", r.peak_rss_mb);
    w.member("heap_allocs", r.heap_allocs);
    w.member("graph_reuses", static_cast<std::uint64_t>(r.stats.graph_reuses));
    w.member("validations_skipped",
             static_cast<std::uint64_t>(r.stats.validations_skipped));
    w.member("sc_exact_hits", r.sc.exact_hits);
    w.member("sc_components_reused", r.sc.components_reused);
    w.member("phase_graph_build_ms", r.stats.phase_graph_build_ms);
    w.member("phase_broadcast_ms", r.stats.phase_broadcast_ms);
    w.member("phase_plan_ms", r.stats.phase_plan_ms);
    w.member("phase_compute_ms", r.stats.phase_compute_ms);
    w.member("phase_move_ms", r.stats.phase_move_ms);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("validate: " + what);
}

// ---- the threads pairing: one observable identity per (adversary, k) ----

/// The round observables every row of one (adversary, k) must share: the
/// engine is bitwise identical at any thread count.
struct Observables {
  std::uint64_t robot_rounds = 0;
  std::uint64_t rounds = 0;
  double packet_mbits = 0;
  bool dispersed = false;

  bool operator==(const Observables&) const = default;

  std::string describe() const {
    return "robot_rounds=" + std::to_string(robot_rounds) +
           " rounds=" + std::to_string(rounds) +
           " packet_mbits=" + std::to_string(packet_mbits) +
           " dispersed=" + std::to_string(dispersed);
  }
};

/// (adversary, k) -> the first row's thread count and observables.
using ThreadPairs =
    std::map<std::string, std::pair<std::uint64_t, Observables>>;

/// Records `seen` for (adversary, k) and throws when an earlier row of the
/// pair, at another thread count, observed a different run.
void pair_threads(ThreadPairs& pairs, const std::string& adversary,
                  std::uint64_t k, std::uint64_t threads,
                  const Observables& seen) {
  const std::string key = adversary + "/k=" + std::to_string(k);
  const auto [it, first] = pairs.try_emplace(key, threads, seen);
  if (first || it->second.second == seen) return;
  fail(key + ": round observables diverged across thread counts (threads=" +
       std::to_string(it->second.first) + ": " +
       it->second.second.describe() + " | threads=" + std::to_string(threads) +
       ": " + seen.describe() + ")");
}

/// Bare --validate: checks the rows just produced. Throws on the first
/// divergence -- a mismatch means the parallel compute phase changed
/// behavior.
void validate_rows(const std::vector<Row>& rows) {
  ThreadPairs pairs;
  for (const Row& row : rows)
    pair_threads(pairs, row.adversary, row.k, row.threads,
                 {row.robot_rounds, row.rounds, row.packet_mbits,
                  row.dispersed});
  std::printf("validate: %zu (adversary, k) pairs, every thread count agreed "
              "on all round observables\n",
              pairs.size());
}

// ---- --validate=FILE: schema v11 checks, no timing assertions ----

const JsonValue& req(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) fail("missing key '" + key + "'");
  return *v;
}

int validate_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue doc = JsonValue::parse(buffer.str());

  if (req(doc, "bench").as_string() != "roundtime")
    fail("'bench' is not \"roundtime\"");
  if (req(doc, "schema_version").as_uint() != kSchemaVersion)
    fail("'schema_version' is not " + std::to_string(kSchemaVersion));
  const std::vector<JsonValue>& rows = req(doc, "results").items();
  if (rows.empty()) fail("'results' is empty");

  static const char* const kUints[] = {
      "k", "n", "threads", "nproc", "rounds", "robot_rounds", "heap_allocs",
      "graph_reuses", "validations_skipped", "sc_exact_hits",
      "sc_components_reused"};
  static const char* const kNumbers[] = {
      "wall_ms", "robot_rounds_per_sec", "packet_mbits", "peak_rss_mb",
      "phase_graph_build_ms", "phase_broadcast_ms", "phase_plan_ms",
      "phase_compute_ms", "phase_move_ms"};
  ThreadPairs pairs;
  for (const JsonValue& row : rows) {
    const std::string adversary = req(row, "adversary").as_string();
    for (const char* key : kUints) (void)req(row, key).as_uint();
    for (const char* key : kNumbers) (void)req(row, key).as_number();
    const std::uint64_t k = req(row, "k").as_uint();
    const std::uint64_t threads = req(row, "threads").as_uint();
    pair_threads(pairs, adversary, k, threads,
                 {req(row, "robot_rounds").as_uint(),
                  req(row, "rounds").as_uint(),
                  req(row, "packet_mbits").as_number(),
                  req(row, "dispersed").as_bool()});
    const std::string tuple = adversary + "/k=" + std::to_string(k) +
                              "/t=" + std::to_string(threads);
    for (const AdversarySpec& spec : kSpecs) {
      if (!spec.reuse_heavy || adversary != spec.name) continue;
      // Replay-heavy adversary: the same_as_last hint path must have fired.
      if (req(row, "graph_reuses").as_uint() == 0)
        fail(tuple + ": reuse-heavy row has graph_reuses == 0");
    }
  }
  std::printf("validate: %s ok (%zu rows, schema v%llu)\n", path.c_str(),
              rows.size(),
              static_cast<unsigned long long>(kSchemaVersion));
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const std::string validate_arg = args.get("validate", "");
  const bool json = args.get_bool("json", false);
  const std::string out_path = args.get("out", "BENCH_roundtime.json");
  const std::vector<std::size_t> thread_counts =
      parse_threads(args.get("threads", "1,2,4"));
  const std::size_t reps = args.get_uint("reps", 1);
  const bool smoke = args.get_bool("smoke", false);
  const bool mega = args.get_bool("mega", false);
  const bool mega_smoke = args.get_bool("mega-smoke", false);
  for (const std::string& key : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
    return 2;
  }
  // Bare `--validate` parses as "true": validate the sweep about to run.
  // Any other value is a JSON file to check.
  if (!validate_arg.empty() && validate_arg != "true")
    return validate_file(validate_arg);

  if (mega_smoke) {
    // CI canary: the k=65536 mega row alone, with hard memory ceilings.
    // Runs before anything else so the process RSS high-water mark is its
    // own, not an earlier row's.
    const Row row = run(kMegaSpec, kMegaSmokeK, 1, reps);
    std::printf(
        "mega-smoke: k=%zu rounds=%llu wall=%.0fms allocs=%llu rss=%.0fMB\n",
        row.k, static_cast<unsigned long long>(row.rounds), row.wall_ms,
        static_cast<unsigned long long>(row.heap_allocs), row.peak_rss_mb);
    bool pass = true;
    if (!row.dispersed) {
      std::printf("mega-smoke: FAIL -- run did not disperse\n");
      pass = false;
    }
    if (row.heap_allocs > kMegaSmokeAllocCeiling) {
      std::printf("mega-smoke: FAIL -- heap_allocs %llu > ceiling %llu\n",
                  static_cast<unsigned long long>(row.heap_allocs),
                  static_cast<unsigned long long>(kMegaSmokeAllocCeiling));
      pass = false;
    }
    if (row.peak_rss_mb > kMegaSmokeRssCeilingMb) {
      std::printf("mega-smoke: FAIL -- peak RSS %.0f MB > ceiling %.0f MB\n",
                  row.peak_rss_mb, kMegaSmokeRssCeilingMb);
      pass = false;
    }
    if (pass) std::printf("mega-smoke: OK (ceilings allocs<=%llu rss<=%.0fMB)\n",
                          static_cast<unsigned long long>(kMegaSmokeAllocCeiling),
                          kMegaSmokeRssCeilingMb);
    return pass ? 0 : 1;
  }

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{16}
            : std::vector<std::size_t>{64, 128, 256, 512};
  std::vector<std::size_t> mega_sizes =
      smoke ? std::vector<std::size_t>{4096}
            : std::vector<std::size_t>{4096, 65536, 100000};
  // The k=10^6 headline costs minutes and >1 GB: opt-in via --mega
  // (scripts/repro.sh forwards DYNDISP_MEGA=1 as this flag).
  if (mega && !smoke) mega_sizes.push_back(1000000);

  std::printf("== Round-time harness: engine wall-clock per robot-round ==\n");
  bool ok = true;
  std::vector<Row> rows;
  const auto sweep = [&](const AdversarySpec& spec, const std::string& title,
                         const std::vector<std::size_t>& ks,
                         const std::vector<std::size_t>& threads_list) {
    AsciiTable table({"k", "threads", "rounds",
                      "wall ms", "g/b/p/c/m ms", "robot-rounds/s",
                      "peak RSS MB", "allocs", "packet Mbits"});
    table.set_title(title);
    for (const std::size_t k : ks) {
      for (const std::size_t threads : threads_list) {
        const std::size_t row_reps = k >= kSingleRepK ? 1 : reps;
        const Row row = run(spec, k, threads, row_reps);
        ok &= row.dispersed;
        rows.push_back(row);
        // Phase attribution: graph_build/broadcast/plan/compute/move.
        const std::string phases =
            fmt_double(row.stats.phase_graph_build_ms, 0) + "/" +
            fmt_double(row.stats.phase_broadcast_ms, 0) + "/" +
            fmt_double(row.stats.phase_plan_ms, 0) + "/" +
            fmt_double(row.stats.phase_compute_ms, 0) + "/" +
            fmt_double(row.stats.phase_move_ms, 0);
        table.add_row({std::to_string(row.k), std::to_string(row.threads),
                       std::to_string(row.rounds), fmt_double(row.wall_ms, 1),
                       phases, fmt_double(row.robot_rounds_per_sec, 0),
                       fmt_double(row.peak_rss_mb, 0),
                       std::to_string(row.heap_allocs),
                       fmt_double(row.packet_mbits, 2)});
      }
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\n");
  };
  for (const AdversarySpec& spec : kSpecs) {
    std::vector<std::size_t> ks = sizes;
    if (spec.max_k != 0)
      std::erase_if(ks, [&](std::size_t k) { return k > spec.max_k; });
    if (spec.extended && !smoke)
      ks.insert(ks.end(), std::begin(kExtendedSizes),
                std::end(kExtendedSizes));
    sweep(spec, spec.name, ks, thread_counts);
  }
  sweep(kMegaSpec, "random (mega-scale, random placement)", mega_sizes, {1});

  if (!validate_arg.empty()) validate_rows(rows);
  if (json) {
    write_json(rows, out_path);
    std::printf("wrote %s (%zu result rows)\n", out_path.c_str(), rows.size());
  }
  if (!ok) std::printf("WARNING: some runs did not disperse\n");
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
