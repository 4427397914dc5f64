// Reproduces Theorem 4: Algorithm 4 solves DISPERSION in Theta(k) rounds
// with Theta(log k) bits per robot, on ANY 1-interval connected dynamic
// graph. Sweeps k over multiple adversaries, graph densities, and initial
// configurations; reports measured rounds (always <= k), the fitted slope
// of rounds vs k (linear scaling), and the audited per-robot memory
// (== ceil(log2(k+1)) bits, robot ID only). Scale rows then take the
// rooted random-connected and star-star runs to k = 512 on one seed each.
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/experiment.h"
#include "core/dispersion.h"
#include "dynamic/churn_adversary.h"
#include "dynamic/random_adversary.h"
#include "dynamic/ring_adversary.h"
#include "dynamic/star_star_adversary.h"
#include "dynamic/static_adversary.h"
#include "dynamic/t_interval_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "util/bits.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace dyndisp;

constexpr std::size_t kTrials = 8;

struct AdversaryKind {
  const char* name;
  std::unique_ptr<Adversary> (*make)(std::size_t n, std::uint64_t seed);
};

std::unique_ptr<Adversary> make_random(std::size_t n, std::uint64_t seed) {
  return std::make_unique<RandomAdversary>(n, n / 3, seed);
}
std::unique_ptr<Adversary> make_tree(std::size_t n, std::uint64_t seed) {
  return std::make_unique<RandomAdversary>(n, 0, seed);
}
std::unique_ptr<Adversary> make_churn(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return std::make_unique<ChurnAdversary>(
      builders::random_connected(n, n / 2, rng), 3, seed);
}
std::unique_ptr<Adversary> make_star_star(std::size_t n, std::uint64_t seed) {
  return std::make_unique<StarStarAdversary>(n, true, seed);
}
std::unique_ptr<Adversary> make_static_shuffled(std::size_t n,
                                                std::uint64_t seed) {
  Rng rng(seed);
  return std::make_unique<StaticAdversary>(
      builders::random_connected(n, n / 3, rng), true, seed);
}
std::unique_ptr<Adversary> make_t_interval(std::size_t n, std::uint64_t seed) {
  return std::make_unique<TIntervalAdversary>(
      std::make_unique<RandomAdversary>(n, n / 4, seed), 4);
}
std::unique_ptr<Adversary> make_ring_worst(std::size_t n, std::uint64_t seed) {
  return std::make_unique<RingAdversary>(
      n, RingAdversary::Strategy::kWorstEdge, seed);
}

const AdversaryKind kAdversaries[] = {
    {"random-connected", make_random},
    {"random-tree", make_tree},
    {"edge-churn", make_churn},
    {"star-star", make_star_star},
    {"static+shuffle", make_static_shuffled},
    {"4-interval", make_t_interval},
    {"dynamic-ring(worst)", make_ring_worst},
};

analysis::SweepSummary sweep(const AdversaryKind& kind, std::size_t n,
                             std::size_t k, bool rooted,
                             std::size_t trials = kTrials) {
  analysis::TrialSpec spec;
  spec.adversary = [&kind, n](std::uint64_t seed) {
    return kind.make(n, seed);
  };
  spec.placement = [n, k, rooted](std::uint64_t seed) {
    if (rooted) return placement::rooted(n, k);
    Rng rng(seed);
    return placement::uniform_random(n, k, rng);
  };
  spec.algorithm = core::dispersion_factory_memoized();
  spec.options.max_rounds = 10 * k + 10;
  return analysis::run_sweep(spec, trials, 1000 + k);
}

}  // namespace

int main() {
  std::printf(
      "== Theorem 4: O(k) rounds, Theta(log k) bits, any dynamic graph ==\n"
      "rounds are max over %zu seeds; bound column is k (Thm 4)\n\n",
      kTrials);

  CsvWriter csv("bench_theorem4.csv",
                {"adversary", "placement", "k", "n", "rounds_max",
                 "rounds_mean", "moves_mean", "memory_bits"});

  const std::vector<std::size_t> ks{8, 16, 32, 64, 128};
  bool all_ok = true;

  for (const bool rooted : {true, false}) {
    std::printf("-- initial configuration: %s --\n",
                rooted ? "rooted (all robots on one node)"
                       : "arbitrary (uniform random)");
    AsciiTable table({"adversary", "k", "n", "max rounds", "mean rounds",
                      "std", "bound k", "mem bits", "log2 bound"});
    std::vector<double> slope_note;
    for (const AdversaryKind& kind : kAdversaries) {
      std::vector<double> xs, ys;
      for (const std::size_t k : ks) {
        const std::size_t n = k + k / 2;
        const analysis::SweepSummary s = sweep(kind, n, k, rooted);
        const bool ok =
            s.dispersed_count == s.trials &&
            s.rounds.max() <= static_cast<double>(k) &&
            s.memory_bits.max() <=
                static_cast<double>(bit_width_for(k + 1));
        all_ok &= ok;
        xs.push_back(static_cast<double>(k));
        ys.push_back(s.rounds.max());
        table.add_row({kind.name, std::to_string(k), std::to_string(n),
                       fmt_double(s.rounds.max(), 0),
                       fmt_double(s.rounds.mean(), 1),
                       fmt_double(s.rounds.stddev(), 1), std::to_string(k),
                       fmt_double(s.memory_bits.max(), 0),
                       std::to_string(bit_width_for(k + 1))});
        csv.add_row({kind.name, rooted ? "rooted" : "random",
                     std::to_string(k), std::to_string(n),
                     fmt_double(s.rounds.max(), 0),
                     fmt_double(s.rounds.mean(), 2),
                     fmt_double(s.moves.mean(), 1),
                     fmt_double(s.memory_bits.max(), 0)});
      }
      const double slope = linear_slope(xs, ys);
      table.add_row({std::string("  `- slope rounds/k = ") +
                         fmt_double(slope, 3),
                     "", "", "", "", "", "", "", ""});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\n");
  }

  // Scale: Theorem 4 at k = 256 and 512, one seed each. Star-star admits
  // exactly one new node per round (Theorem 3), so rooted runs take exactly
  // k - 1 rounds; memory stays the robot ID alone.
  std::printf("-- scale: rooted, one seed, k up to 512 --\n");
  AsciiTable scale({"adversary", "k", "n", "rounds", "bound", "mem bits",
                    "log2 bound"});
  // kAdversaries[0] is random-connected, kAdversaries[3] star-star.
  for (const AdversaryKind* kind : {&kAdversaries[0], &kAdversaries[3]}) {
    const bool exact = kind->make == make_star_star;
    for (const std::size_t k : {256u, 512u}) {
      const std::size_t n = k + k / 2;
      const analysis::SweepSummary s =
          sweep(*kind, n, k, /*rooted=*/true, /*trials=*/1);
      const auto rounds = static_cast<std::size_t>(s.rounds.max());
      all_ok &= s.dispersed_count == 1 &&
                (exact ? rounds == k - 1 : rounds <= k) &&
                s.memory_bits.max() ==
                    static_cast<double>(bit_width_for(k + 1));
      scale.add_row({kind->name, std::to_string(k), std::to_string(n),
                     std::to_string(rounds),
                     exact ? "= " + std::to_string(k - 1)
                           : "<= " + std::to_string(k),
                     fmt_double(s.memory_bits.max(), 0),
                     std::to_string(bit_width_for(k + 1))});
    }
  }
  std::fputs(scale.render().c_str(), stdout);
  std::printf("\n");

  std::printf("%s\nseries written to bench_theorem4.csv\n",
              all_ok ? "All sweeps within Theorem 4's bounds: rounds <= k, "
                       "memory = ceil(log2(k+1)) bits."
                     : "MISMATCH: some sweep exceeded the Theorem 4 bounds!");
  return all_ok ? 0 : 1;
}
