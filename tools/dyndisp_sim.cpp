// dyndisp_sim -- command-line driver for the dispersion simulator.
//
// Runs any (algorithm x adversary x placement x fault/activation model)
// combination from the library over one or many seeds and reports rounds,
// moves, metered memory, and progress; optionally dumps a full JSON trace
// or a per-seed CSV. Each trial is built by campaign::make_trial_spec from
// the tuple and that trial's own seed, the one construction campaigns and
// dyndisp_check use too, so every row of a --trials sweep is bit-identical
// to the same seed run alone and to its dyndisp_campaign record.
//
// Examples:
//   dyndisp_sim --n 20 --k 14                          # Alg4, random dynamic
//   dyndisp_sim --adversary star-star --k 32 --trials 5
//   dyndisp_sim --algorithm dfs --adversary static --family grid --comm local
//   dyndisp_sim --faults 4 --trials 10 --csv out.csv
//   dyndisp_sim --adversary ring-worst --trace-json trace.json
//   dyndisp_sim --list                                 # registered names
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "analysis/experiment.h"
#include "campaign/registry.h"
#include "campaign/spec.h"
#include "sim/byzantine.h"
#include "sim/engine.h"
#include "util/cli.h"
#include "viz/svg.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace dyndisp;

constexpr const char* kUsage = R"(dyndisp_sim -- dispersion on dynamic graphs

flags (all optional):
  --n N                nodes (default 20)
  --k K                robots (default 2n/3)
  --trials T           seeds to sweep, at least 1 (default 1)
  --seed S             base seed (default 1)
  --max-rounds R       round budget (default and 0: 100k)
  --algorithm A        alg4 | alg4-bfs | alg4-1path | dfs | greedy |
                       random-walk | blind-walk           (default alg4)
  --adversary ADV      random | tree | churn | star-star | ring |
                       ring-worst | t-interval | static | static-shuffle |
                       path-trap | clique-trap            (default random)
  --family F           static family: path cycle star complete grid torus
                       hypercube btree lollipop random    (default random)
  --placement P        rooted | random | grouped | figure1 (default rooted)
  --groups G           groups for grouped placement (default 3)
  --comm C             default | global | local (default: what the
                       algorithm needs)
  --knowledge B        1-neighborhood knowledge on/off (default: as needed)
  --activation P       semi-synchronous activation probability (default 1.0)
  --scheduler S        sync | round-robin (default sync; round-robin
                       activates one robot per round)
  --threads T          compute-phase worker threads (default 1; results
                       are identical at any thread count)
  --faults F           robots to crash at random rounds (default 0)
  --liars L            Byzantine liars (robots 1..L) (default 0)
  --lie KIND           hide-multiplicity | hide-empty | erratic
                       (default hide-multiplicity)
  --trace-json FILE    dump the first trial's full trace as JSON
  --svg FILE           render the first trial as an animated SVG
  --csv FILE           per-trial results CSV
  --list               enumerate every name the registry knows and exit
  --help               this text
)";

void print_registry() {
  const campaign::Registry& registry = campaign::Registry::instance();
  const auto print = [](const char* category,
                        const std::vector<std::string>& names) {
    std::printf("%s:", category);
    for (const std::string& name : names) std::printf(" %s", name.c_str());
    std::printf("\n");
  };
  print("algorithms", registry.algorithm_names());
  print("adversaries", registry.adversary_names());
  print("families", registry.family_names());
  print("placements", registry.placement_names());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    if (args.has("help")) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (args.has("list")) {
      print_registry();
      return 0;
    }

    // The named tuple, built per seed by campaign::make_trial_spec exactly as
    // a campaign job; the remaining flags layer engine options on top.
    campaign::JobSpec job;
    job.n = args.get_uint("n", 20);
    job.k = args.get_uint("k", std::max<std::size_t>(2, 2 * job.n / 3));
    job.algorithm = args.get("algorithm", "alg4");
    job.adversary = args.get("adversary", "random");
    job.family = args.get("family", "random");
    job.placement = args.get("placement", "rooted");
    job.groups = args.get_uint("groups", 3);
    job.comm = args.get("comm", "default");
    job.faults = args.get_uint("faults", 0);
    job.max_rounds = args.get_uint("max-rounds", 0);
    const std::size_t trials = args.get_uint("trials", 1);
    const std::uint64_t base_seed = args.get_uint("seed", 1);
    const std::size_t threads = args.get_uint("threads", 1);
    // -1 (unset): the knowledge the algorithm needs, make_trial_spec's pick.
    const int knowledge = args.get("knowledge", "").empty()
                              ? -1
                              : args.get_bool("knowledge", false);
    const double activation = args.get_double("activation", 1.0);
    const std::size_t liars = args.get_uint("liars", 0);
    const std::string lie_kind = args.get("lie", "hide-multiplicity");
    const std::string scheduler = args.get("scheduler", "sync");
    const std::string trace_path = args.get("trace-json", "");
    const std::string svg_path = args.get("svg", "");
    const std::string csv_path = args.get("csv", "");

    if (trials == 0)
      throw std::invalid_argument("--trials must be at least 1");
    std::shared_ptr<ByzantineModel> byzantine;
    if (liars > 0) {
      ByzantineLie lie = ByzantineLie::kHideMultiplicity;
      if (lie_kind == "hide-empty") lie = ByzantineLie::kHideEmptyNeighbors;
      else if (lie_kind == "erratic") lie = ByzantineLie::kErraticMoves;
      else if (lie_kind != "hide-multiplicity")
        throw std::invalid_argument("unknown --lie " + lie_kind);
      std::set<RobotId> ids;
      for (std::size_t i = 0; i < liars; ++i)
        ids.insert(static_cast<RobotId>(i + 1));
      byzantine = std::make_shared<ByzantineModel>(std::move(ids), lie);
    }
    if (scheduler != "sync" && scheduler != "round-robin")
      throw std::invalid_argument("unknown --scheduler " + scheduler);

    if (const auto unknown = args.unused(); !unknown.empty()) {
      std::fprintf(stderr, "unknown flag --%s (see --help)\n",
                   unknown.front().c_str());
      return 2;
    }

    const campaign::Registry& registry = campaign::Registry::instance();
    std::unique_ptr<CsvWriter> csv;
    if (!csv_path.empty()) {
      csv = std::make_unique<CsvWriter>(
          csv_path, std::vector<std::string>{"seed", "dispersed", "rounds",
                                             "moves", "memory_bits",
                                             "max_occupied", "crashed"});
    }

    Summary rounds, moves, memory;
    std::size_t dispersed = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      job.seed = base_seed + t;
      analysis::TrialSpec spec = campaign::make_trial_spec(
          job, registry.algorithm(job.algorithm, job.seed));
      EngineOptions& options = spec.options;
      options.threads = threads;
      options.record_progress = true;
      if (knowledge >= 0) options.neighborhood_knowledge = knowledge == 1;
      if (activation < 1.0) {
        options.activation = Activation::kRandomSubset;
        options.activation_probability = activation;
        options.activation_seed = job.seed;
      }
      if (scheduler == "round-robin")
        options.activation = Activation::kRoundRobin;
      options.byzantine = byzantine;
      options.record_trace =
          t == 0 && (!trace_path.empty() || !svg_path.empty());
      const RunResult r = analysis::run_trial(spec, job.seed);
      if (r.dispersed) ++dispersed;
      rounds.add(static_cast<double>(r.rounds));
      moves.add(static_cast<double>(r.total_moves));
      memory.add(static_cast<double>(r.max_memory_bits));
      if (csv) {
        csv->add_row({std::to_string(job.seed), r.dispersed ? "1" : "0",
                      std::to_string(r.rounds), std::to_string(r.total_moves),
                      std::to_string(r.max_memory_bits),
                      std::to_string(r.max_occupied),
                      std::to_string(r.crashed)});
      }
      if (options.record_trace && !trace_path.empty()) {
        std::ofstream out(trace_path);
        out << trace_to_json(r.trace);
        std::printf("trace written to %s (%zu rounds)\n", trace_path.c_str(),
                    r.trace.size());
      }
      if (options.record_trace && !svg_path.empty()) {
        std::ofstream out(svg_path);
        out << viz::render_animation(r.trace);
        std::printf("animation written to %s (%zu rounds)\n",
                    svg_path.c_str(), r.trace.size());
      }
    }

    AsciiTable table({"metric", "value"});
    table.set_title("dyndisp_sim: " + job.algorithm + " vs " + job.adversary +
                    " (n=" + std::to_string(job.n) +
                    ", k=" + std::to_string(job.k) +
                    ", trials=" + std::to_string(trials) + ")");
    table.add_row({"dispersed", std::to_string(dispersed) + "/" +
                                    std::to_string(trials)});
    table.add_row({"rounds mean/max", fmt_double(rounds.mean(), 1) + " / " +
                                          fmt_double(rounds.max(), 0)});
    table.add_row({"moves mean", fmt_double(moves.mean(), 1)});
    table.add_row({"memory bits max", fmt_double(memory.max(), 0)});
    std::fputs(table.render().c_str(), stdout);
    return dispersed == trials ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), kUsage);
    return 2;
  }
}
