// The benchmark's child process: runs ONE repetition of one workload and
// prints what it measured as one JSON document on stdout. benchmark/run.py
// starts a fresh child per repetition (a heap and a peak RSS of its own),
// checks the simulated outcome and turns the documents into the metrics
// that BENCHMARK.json declares.
//
//   dyndisp_benchmark --workload=NAME --seed=N [--lanes=L] [--smoke]
//                     [--trace=FILE] [--store=DIR]
//   dyndisp_benchmark --info
//
// A repetition of an engine workload runs a fixed batch of instances, each
// one Algorithm 4 run to dispersion on an instance seed derived from --seed;
// `sweep` runs one in-process campaign. --trace runs the repetition through
// the tracing decorators (tracing.h) and writes one JSON line per round
// (per job for `sweep`) to FILE. --store is the campaign result directory
// `sweep` writes and removes; it must not exist yet. Times are integer
// nanoseconds from the library's monotonic phase clock; run.py does the
// arithmetic.
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/verify.h"
#include "campaign/registry.h"
#include "campaign/scheduler.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "core/dispersion.h"
#include "core/structure_cache.h"
#include "dynamic/path_trap_adversary.h"
#include "dynamic/random_adversary.h"
#include "dynamic/t_interval_adversary.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "tracing.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/memprobe.h"
#include "util/phase_clock.h"

// heap_allocs counts every operator new of the timed regions.
DYNDISP_MEMPROBE_DEFINE_GLOBAL_NEW

namespace {

using namespace dyndisp;

/// An engine workload. README.md says why each one is here and which layer
/// it stresses.
struct Workload {
  std::string_view name;
  std::string_view adversary;
  std::string_view placement;  // "random", or "rooted" at node seed % n
  std::size_t k, n;
  std::size_t smoke_k, smoke_n;
  /// Instances per repetition. run.py keeps each instance's fastest run
  /// over a run's repetitions, so a burst of host noise costs one instance,
  /// not the repetition; and the random adversaries' work varies with the
  /// seed (churn: 22-26 rounds), which a batch averages out.
  std::size_t instances;
  bool multi_lane;  // runs at --lanes; every other workload on one lane
};

constexpr Workload kWorkloads[] = {
    {"churn", "random", "random", 10000, 15000, 1000, 1500, 8, false},
    {"churn-par", "random", "random", 10000, 15000, 1000, 1500, 8, true},
    {"replay", "t-interval-8", "rooted", 768, 2304, 64, 192, 16, false},
    {"trap", "path-trap", "rooted", 104, 156, 16, 24, 4, false},
    {"clique", "clique-trap", "rooted", 104, 156, 16, 24, 4, false},
    {"ring", "ring-worst", "rooted", 128, 192, 16, 24, 4, false},
};

/// Setups per instance; run.py reports the median of a repetition's.
constexpr int kSetupReps = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 11;
  std::size_t lanes = 1;
  bool smoke = false;
  std::string trace_path;
  std::string store_dir;
};

std::unique_ptr<Adversary> make_adversary(const Workload& w, std::size_t n,
                                          std::uint64_t seed) {
  if (w.adversary == "t-interval-8") {
    // bench_roundtime's replay construction: 7 of every 8 rounds replay the
    // window's graph.
    return std::make_unique<TIntervalAdversary>(
        std::make_unique<RandomAdversary>(n, n / 4, seed), 8);
  }
  if (w.adversary == "path-trap") {
    // The registry pins the trap's candidate stream; the benchmark seeds it.
    return std::make_unique<PathTrapAdversary>(n, seed);
  }
  return campaign::Registry::instance().adversary(std::string(w.adversary),
                                                  "random", n, seed);
}

Configuration make_placement(const Workload& w, std::size_t n, std::size_t k,
                             std::uint64_t seed) {
  if (w.placement == "rooted")
    return placement::rooted(n, k, static_cast<NodeId>(seed % n));
  return campaign::Registry::instance().placement(std::string(w.placement), n,
                                                  k, 1, seed);
}

/// FNV-1a, folded one 64-bit word at a time.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

std::uint64_t ms_to_ns(double ms) {
  return static_cast<std::uint64_t>(ms * 1e6 + 0.5);
}

/// Restricts the process to the `lanes` CPUs of its affinity mask that sort
/// a small array fastest, and returns them (all of them when there are no
/// more than `lanes`). On a shared host a CPU whose hyperthread sibling is
/// busy runs this simulator up to 1.7x slower, and which CPU that is changes
/// within seconds; probing before every repetition keeps the repetition off
/// it. Threads the engine starts later inherit the mask.
std::vector<int> pin_to_quiet_cpus(std::size_t lanes) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  std::vector<std::uint32_t> data(1 << 14);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t& v : data) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    v = static_cast<std::uint32_t>(x >> 33);
  }
  std::vector<std::pair<std::uint64_t, int>> probed;  // (best ns, cpu)
  std::vector<std::uint32_t> work;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    std::uint64_t best = ~std::uint64_t{0};
    for (int r = 0; r < 3; ++r) {
      work = data;
      const std::uint64_t t0 = phase_clock_ns();
      std::sort(work.begin(), work.end());
      best = std::min(best, phase_clock_ns() - t0);
    }
    probed.emplace_back(best, cpu);
  }
  std::sort(probed.begin(), probed.end());
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::vector<int> cpus;
  for (std::size_t i = 0; i < probed.size(); ++i) {
    if (i < lanes) {
      CPU_SET(probed[i].second, &chosen);
      cpus.push_back(probed[i].second);
    }
  }
  if (probed.size() <= lanes ||
      sched_setaffinity(0, sizeof chosen, &chosen) != 0) {
    sched_setaffinity(0, sizeof allowed, &allowed);
    cpus.clear();
    for (const auto& [ns, cpu] : probed) cpus.push_back(cpu);
  }
  return cpus;
}

/// The simulated outcome of one instance; equal on every repetition.
struct SimStats {
  std::uint64_t seed = 0;
  bool dispersed = false;
  std::uint64_t rounds = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packet_bits_sent = 0;
  std::uint64_t total_moves = 0;
  std::uint64_t digest = 0;
};

/// What every repetition reports, engine or campaign.
struct Outcome {
  std::vector<int> cpus;
  std::vector<std::uint64_t> setup_ns;
  std::vector<std::uint64_t> instance_wall_ns;  // sums to wall_ns
  std::uint64_t wall_ns = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<SimStats> sims;
};

void write_outcome(JsonWriter& w, const Options& opt, std::size_t k,
                   std::size_t n, std::size_t lanes, const Outcome& o) {
  w.member("workload", opt.workload);
  w.member("seed", opt.seed);
  w.member("k", static_cast<std::uint64_t>(k));
  w.member("n", static_cast<std::uint64_t>(n));
  w.member("lanes", static_cast<std::uint64_t>(lanes));
  w.member("traced", !opt.trace_path.empty());
  w.key("cpus");
  w.begin_array();
  for (const int cpu : o.cpus) w.value(static_cast<std::int64_t>(cpu));
  w.end_array();
  w.key("setup_ns");
  w.begin_array();
  for (const std::uint64_t ns : o.setup_ns) w.value(ns);
  w.end_array();
  w.member("wall_ns", o.wall_ns);
  w.key("instance_wall_ns");
  w.begin_array();
  for (const std::uint64_t ns : o.instance_wall_ns) w.value(ns);
  w.end_array();
  w.member("heap_allocs", o.heap_allocs);
  w.member("attempted", o.attempted);
  w.member("failed", o.failed);
  w.key("violations");
  w.begin_array();
  for (const std::string& v : o.violations) w.value(v);
  w.end_array();
  w.key("sim");
  w.begin_array();
  for (const SimStats& s : o.sims) {
    w.begin_object();
    w.member("seed", s.seed);
    w.member("dispersed", s.dispersed);
    w.member("rounds", s.rounds);
    w.member("packets_sent", s.packets_sent);
    w.member("packet_bits_sent", s.packet_bits_sent);
    w.member("total_moves", s.total_moves);
    w.member("digest", s.digest);
    w.end_object();
  }
  w.end_array();
}

/// RoundLoopStats summed over a repetition's instances (the engine's own
/// phase clocks, reported as a cross-check of the outside spans).
struct EngineTotals {
  double graph_build_ms = 0, broadcast_ms = 0, plan_ms = 0, compute_ms = 0,
         move_ms = 0;
  std::uint64_t broadcasts_reused = 0, broadcast_deltas = 0,
                packets_copied = 0, packets_rebuilt = 0;

  void add(const RoundLoopStats& s) {
    graph_build_ms += s.phase_graph_build_ms;
    broadcast_ms += s.phase_broadcast_ms;
    plan_ms += s.phase_plan_ms;
    compute_ms += s.phase_compute_ms;
    move_ms += s.phase_move_ms;
    broadcasts_reused += s.broadcasts_reused;
    broadcast_deltas += s.broadcast_deltas;
    packets_copied += s.packets_copied;
    packets_rebuilt += s.packets_rebuilt;
  }

  void write(JsonWriter& w) const {
    w.key("engine");
    w.begin_object();
    w.member("phase_graph_build_ns", ms_to_ns(graph_build_ms));
    w.member("phase_broadcast_ns", ms_to_ns(broadcast_ms));
    w.member("phase_plan_ns", ms_to_ns(plan_ms));
    w.member("phase_compute_ns", ms_to_ns(compute_ms));
    w.member("phase_move_ns", ms_to_ns(move_ms));
    w.member("broadcasts_reused", broadcasts_reused);
    w.member("broadcast_deltas", broadcast_deltas);
    w.member("packets_copied", packets_copied);
    w.member("packets_rebuilt", packets_rebuilt);
    w.end_object();
  }
};

/// The traced spans summed over a repetition's instances.
struct TraceTotals {
  std::uint64_t run = 0, lead_in = 0, rounds = 0, reused_rounds = 0,
                adversary = 0, probe = 0, probe_calls = 0, pre_step = 0,
                miss = 0, misses = 0, step = 0, steps = 0, post_step = 0,
                plan_hits = 0, plan_misses = 0;
  core::StructureCacheStats sc;
  std::vector<std::uint64_t> round_ns;

  void add(const bench::RoundTracer& tracer, const core::PlanCache& cache,
           std::size_t k) {
    run += tracer.run_ns();
    lead_in += tracer.lead_in_ns();
    for (const bench::RoundSpan& r : tracer.rounds()) {
      ++rounds;
      reused_rounds += r.graph_reused ? 1 : 0;
      adversary += r.adversary_ns;
      probe += r.probe_ns;
      probe_calls += r.probe_calls;
      pre_step += r.pre_step_ns;
      miss += r.miss_ns;
      misses += r.plan_missed ? 1 : 0;
      step += r.step_ns;
      steps += k;
      post_step += r.post_step_ns;
      round_ns.push_back(r.wall_ns());
    }
    plan_hits += cache.hits();
    plan_misses += cache.misses();
    const core::StructureCacheStats s = cache.structure_cache()->stats();
    sc.exact_hits += s.exact_hits;
    sc.delta_rounds += s.delta_rounds;
    sc.full_builds += s.full_builds;
    sc.components_reused += s.components_reused;
    sc.components_rebuilt += s.components_rebuilt;
  }

  void write(JsonWriter& w) const {
    w.key("trace");
    w.begin_object();
    w.member("run_ns", run);
    w.member("lead_in_ns", lead_in);
    w.member("rounds", rounds);
    w.member("reused_rounds", reused_rounds);
    w.member("adversary_ns", adversary);
    w.member("probe_ns", probe);
    w.member("probe_calls", probe_calls);
    w.member("pre_step_ns", pre_step);
    w.member("miss_ns", miss);
    w.member("misses", misses);
    w.member("step_ns", step);
    w.member("steps", steps);
    w.member("post_step_ns", post_step);
    w.member("plan_hits", plan_hits);
    w.member("plan_misses", plan_misses);
    w.member("sc_exact_hits", sc.exact_hits);
    w.member("sc_delta_rounds", sc.delta_rounds);
    w.member("sc_full_builds", sc.full_builds);
    w.member("sc_components_reused", sc.components_reused);
    w.member("sc_components_rebuilt", sc.components_rebuilt);
    w.key("round_ns");
    w.begin_array();
    for (const std::uint64_t ns : round_ns) w.value(ns);
    w.end_array();
    w.end_object();
  }
};

void write_round_lines(std::ostream& out, std::uint64_t seed,
                       const std::vector<bench::RoundSpan>& rounds) {
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const bench::RoundSpan& s = rounds[r];
    out << "{\"seed\": " << seed << ", \"round\": " << r
        << ", \"adversary_ns\": " << s.adversary_ns
        << ", \"probe_ns\": " << s.probe_ns
        << ", \"probe_calls\": " << s.probe_calls
        << ", \"graph_reused\": " << (s.graph_reused ? "true" : "false")
        << ", \"pre_step_ns\": " << s.pre_step_ns
        << ", \"miss_ns\": " << s.miss_ns
        << ", \"plan_missed\": " << (s.plan_missed ? "true" : "false")
        << ", \"step_ns\": " << s.step_ns
        << ", \"post_step_ns\": " << s.post_step_ns << "}\n";
  }
}

int run_engine(const Workload& wl, const Options& opt) {
  const std::size_t k = opt.smoke ? wl.smoke_k : wl.k;
  const std::size_t n = opt.smoke ? wl.smoke_n : wl.n;
  const std::size_t lanes = wl.multi_lane ? opt.lanes : 1;
  const bool traced = !opt.trace_path.empty();
  std::ofstream round_lines;
  if (traced) {
    round_lines.open(opt.trace_path);
    if (!round_lines) throw std::runtime_error("cannot write " + opt.trace_path);
  }

  Outcome o;
  o.cpus = pin_to_quiet_cpus(lanes);
  EngineTotals engine_totals;
  TraceTotals trace_totals;
  std::size_t nodes = n;
  for (std::size_t i = 0; i < wl.instances; ++i) {
    const std::uint64_t seed = opt.seed * wl.instances + i;
    std::shared_ptr<core::PlanCache> cache;
    std::unique_ptr<bench::RoundTracer> tracer;
    std::unique_ptr<Adversary> adversary;
    std::unique_ptr<Engine> engine;
    for (int s = 0; s < kSetupReps; ++s) {
      engine.reset();
      adversary.reset();
      const std::uint64_t t0 = phase_clock_ns();
      adversary = make_adversary(wl, n, seed);
      nodes = adversary->node_count();
      Configuration initial = make_placement(wl, nodes, k, seed);
      AlgorithmFactory factory = core::dispersion_factory_memoized();
      if (traced) {
        // dispersion_factory_memoized()'s construction, with the caches
        // held here so their counters are this instance's alone.
        cache = std::make_shared<core::PlanCache>();
        cache->set_structure_cache(std::make_shared<core::StructureCache>());
        tracer = std::make_unique<bench::RoundTracer>(k, lanes, cache);
        adversary = std::make_unique<bench::TimedAdversary>(
            std::move(adversary), *tracer);
        factory = [cache, t = tracer.get()](RobotId id, std::size_t robots) {
          return std::make_unique<bench::TimedRobot>(
              std::make_unique<core::DispersionRobot>(id, robots, cache),
              id - 1, *t);
        };
      }
      EngineOptions eo;
      eo.max_rounds = 2 * k + 16;  // Theorem 4 allows k; a stall ends early
      eo.threads = lanes;
      engine = std::make_unique<Engine>(*adversary, std::move(initial),
                                        factory, eo);
      o.setup_ns.push_back(phase_clock_ns() - t0);
    }

    const std::uint64_t allocs_before = memprobe::allocation_count();
    if (tracer) tracer->begin_run();
    const std::uint64_t t0 = phase_clock_ns();
    const RunResult r = engine->run();
    const std::uint64_t t1 = phase_clock_ns();
    if (tracer) tracer->end_run();
    o.heap_allocs += memprobe::allocation_count() - allocs_before;
    o.instance_wall_ns.push_back(tracer ? tracer->run_ns() : t1 - t0);
    o.wall_ns += o.instance_wall_ns.back();

    SimStats sim;
    sim.seed = seed;
    sim.dispersed = r.dispersed;
    sim.rounds = r.rounds;
    sim.packets_sent = r.packets_sent;
    sim.packet_bits_sent = r.packet_bits_sent;
    sim.total_moves = r.total_moves;
    Digest d;
    for (RobotId id = 1; id <= r.final_config.robot_count(); ++id)
      d.add(r.final_config.alive(id) ? r.final_config.position(id) + 1 : 0);
    sim.digest = d.h;
    o.sims.push_back(sim);
    ++o.attempted;
    if (std::string err = analysis::check_round_bound(r); !err.empty()) {
      o.violations.push_back("seed " + std::to_string(seed) +
                             ": Theorem 4: " + err);
      ++o.failed;
    }
    engine_totals.add(r.stats);
    if (tracer) {
      trace_totals.add(*tracer, *cache, k);
      write_round_lines(round_lines, seed, tracer->rounds());
    }
  }

  JsonWriter w(std::cout);
  w.begin_object();
  write_outcome(w, opt, k, nodes, lanes, o);
  engine_totals.write(w);
  if (traced) trace_totals.write(w);
  w.end_object();
  std::cout << '\n';
  return 0;
}

/// One campaign of the sweep: 5 adversaries x 2 n x 2 k x 10 seeds = 200
/// jobs, on a seed range of its own. The campaign scheduler fans jobs out
/// with parallel_for, which runs fewer than kParallelForSerialCutoff (192)
/// on one lane whatever the lane count; 200 keeps every lane busy.
std::string sweep_spec(std::uint64_t seed, bool smoke) {
  std::ostringstream os;
  os << R"({"name": "benchmark-sweep", "axes": {"algorithms": ["alg4"], )"
     << R"("adversaries": ["random", "static", "t-interval", "churn", )"
     << R"("star-star"], )"
     << (smoke ? R"("n": [24], "k": [16]}, "seeds": 2)"
               : R"("n": [192, 384], "k": [64, 128]}, "seeds": 10)")
     << R"(, "placement": "rooted", "base_seed": )" << seed * 10 << "}";
  return os.str();
}

constexpr std::size_t kSweepCampaigns = 3;

int run_sweep(const Options& opt) {
  if (opt.store_dir.empty())
    throw std::invalid_argument("sweep needs --store=DIR");
  if (std::filesystem::exists(opt.store_dir))
    throw std::invalid_argument("--store " + opt.store_dir + " already exists");

  Outcome o;
  o.cpus = pin_to_quiet_cpus(opt.lanes);
  std::size_t lanes = opt.lanes;
  std::vector<std::uint64_t> job_ns;
  std::ofstream job_lines;
  if (!opt.trace_path.empty()) {
    job_lines.open(opt.trace_path);
    if (!job_lines) throw std::runtime_error("cannot write " + opt.trace_path);
  }
  for (std::size_t i = 0; i < kSweepCampaigns; ++i) {
    const std::uint64_t seed = opt.seed * kSweepCampaigns + i;
    const std::string text = sweep_spec(seed, opt.smoke);
    const std::string dir = opt.store_dir + "/" + std::to_string(i);
    std::unique_ptr<campaign::CampaignSpec> spec;
    std::unique_ptr<campaign::ResultStore> store;
    std::size_t jobs = 0;
    for (int s = 0; s < kSetupReps; ++s) {
      store.reset();
      const std::uint64_t t0 = phase_clock_ns();
      spec = std::make_unique<campaign::CampaignSpec>(
          campaign::CampaignSpec::parse_json(text));
      jobs = spec->expand().size();
      store = std::make_unique<campaign::ResultStore>(dir);
      o.setup_ns.push_back(phase_clock_ns() - t0);
    }

    const std::uint64_t allocs_before = memprobe::allocation_count();
    const std::uint64_t t0 = phase_clock_ns();
    const campaign::CampaignOutcome outcome =
        campaign::run_campaign(*spec, *store, opt.lanes);
    o.instance_wall_ns.push_back(phase_clock_ns() - t0);
    o.wall_ns += o.instance_wall_ns.back();
    o.heap_allocs += memprobe::allocation_count() - allocs_before;
    lanes = outcome.threads;

    std::vector<campaign::TrialRecord> records = store->load();
    store.reset();
    std::sort(records.begin(), records.end(),
              [](const auto& a, const auto& b) {
                return a.job.index < b.job.index;
              });
    o.attempted += jobs;
    if (records.size() != jobs || outcome.executed != jobs) {
      o.violations.push_back("campaign stored " +
                             std::to_string(records.size()) + " of " +
                             std::to_string(jobs) + " jobs");
      o.failed += jobs;
    }
    SimStats sim;
    sim.seed = seed;
    sim.dispersed = true;
    Digest d;
    for (const campaign::TrialRecord& rec : records) {
      // Rooted placement: Theorem 4 allows k rounds.
      if (!rec.ok || !rec.dispersed || rec.rounds > rec.job.k) {
        ++o.failed;
        o.violations.push_back(rec.job.id() + ": " +
                               (!rec.ok          ? rec.error
                                : !rec.dispersed ? "did not disperse"
                                                 : "Theorem 4 bound"));
      }
      sim.dispersed = sim.dispersed && rec.dispersed;
      sim.rounds += rec.rounds;
      sim.total_moves += rec.moves;
      d.add(rec.job.index);
      d.add(rec.rounds);
      d.add(rec.moves);
      d.add(rec.memory_bits);
      d.add(rec.max_occupied);
      job_ns.push_back(ms_to_ns(rec.wall_ms));
      if (job_lines.is_open())
        job_lines << "{\"job\": \"" << json_escape(rec.job.id())
                  << "\", \"wall_ns\": " << job_ns.back()
                  << ", \"rounds\": " << rec.rounds << "}\n";
    }
    sim.digest = d.h;
    o.sims.push_back(sim);
  }
  std::filesystem::remove_all(opt.store_dir);

  JsonWriter w(std::cout);
  w.begin_object();
  write_outcome(w, opt, 0, 0, lanes, o);
  w.key("trace");
  w.begin_object();
  w.member("run_ns", o.wall_ns);
  w.key("job_ns");
  w.begin_array();
  for (const std::uint64_t ns : job_ns) w.value(ns);
  w.end_array();
  w.end_object();
  w.end_object();
  std::cout << '\n';
  return 0;
}

int print_info() {
  JsonWriter w(std::cout);
  w.begin_object();
#if defined(__clang__)
  w.member("compiler", "clang " __VERSION__);
#elif defined(__GNUC__)
  w.member("compiler", "gcc " __VERSION__);
#else
  w.member("compiler", "unknown");
#endif
  w.member("build_type", DYNDISP_BENCH_BUILD_TYPE);
#ifdef NDEBUG
  w.member("asserts", false);
#else
  w.member("asserts", true);
#endif
  w.key("workloads");
  w.begin_array();
  for (const Workload& wl : kWorkloads) w.value(std::string(wl.name));
  w.value("sweep");
  w.end_array();
  w.end_object();
  std::cout << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  const bool info = args.get_bool("info", false);
  Options opt;
  opt.workload = args.get("workload", "");
  opt.seed = args.get_uint("seed", 11);
  opt.lanes = args.get_uint("lanes", 1);
  opt.smoke = args.get_bool("smoke", false);
  opt.trace_path = args.get("trace", "");
  opt.store_dir = args.get("store", "");
  for (const std::string& key : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
    return 2;
  }
  if (info) return print_info();
  if (opt.lanes == 0) throw std::invalid_argument("--lanes must be >= 1");
  if (opt.workload == "sweep") return run_sweep(opt);
  for (const Workload& wl : kWorkloads)
    if (wl.name == opt.workload) return run_engine(wl, opt);
  std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
