// Adversary showcase: watch the Theorem 3 lower-bound adversary at work.
//
// Round by round, the adversary rebuilds the two-star dynamic tree of
// Fig. 2 -- a star over the occupied nodes, a star over the empty ones, one
// bridge between the centers -- so that exactly ONE empty node borders the
// occupied set. Algorithm 4 still extracts the maximum possible progress
// (one robot through the bridge per round) and finishes in exactly k-1
// rounds: the Theta(k) bound, visualized.
#include <cstdio>
#include <string>

#include "core/dispersion.h"
#include "dynamic/star_star_adversary.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "sim/trace.h"

int main() {
  using namespace dyndisp;

  const std::size_t n = 12, k = 8;
  StarStarAdversary adversary(n);

  EngineOptions options;
  options.max_rounds = 10 * k;
  Trace trace;
  options.on_round = record_into(trace);

  Engine engine(adversary, placement::rooted(n, k),
                core::dispersion_factory(), options);
  const RunResult result = engine.run();

  std::printf("star-star adversary vs Algorithm 4: n=%zu, k=%zu, rooted\n\n",
              n, k);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& rec = trace.at(i);
    // Render the two stars: occupied nodes (count in brackets) | empty.
    std::string occupied_side, empty_side;
    const auto occ = rec.before.occupancy();
    for (NodeId v = 0; v < n; ++v) {
      if (occ[v] > 0) {
        occupied_side += " " + std::to_string(v);
        if (occ[v] > 1) occupied_side += "(x" + std::to_string(occ[v]) + ")";
      } else {
        empty_side += " " + std::to_string(v);
      }
    }
    std::printf("round %zu: T_A = {%s } --bridge-- T_B = {%s }\n", i,
                occupied_side.c_str(), empty_side.c_str());
    for (RobotId id = 1; id <= k; ++id) {
      if (rec.moves[id - 1] != kInvalidPort) {
        std::printf("          robot %u crosses to node %u (+%zu new node)\n",
                    id, rec.after.position(id), rec.newly_occupied);
      }
    }
  }
  std::printf("\ndispersed in %llu rounds; the adversarial lower bound is "
              "k-1 = %zu: ratio %.3f\n",
              static_cast<unsigned long long>(result.rounds), k - 1,
              static_cast<double>(result.rounds) / static_cast<double>(k - 1));
  return result.dispersed && result.rounds == k - 1 ? 0 : 1;
}
