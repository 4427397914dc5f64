// The paper's motivating application (Section I): relocating self-driving
// electric cars (robots) to recharge stations (graph nodes), where every
// station can serve one car and the road network changes -- lane closures,
// congestion -- from minute to minute.
//
// A 4x5 city grid of stations starts with all 14 cars clustered at two
// downtown garages. Each round a couple of road segments close and others
// reopen (edge-churn adversary). The cars run Algorithm 4: global
// communication is the cars' radio network, 1-neighborhood knowledge is
// their ability to see whether adjacent stations are taken.
#include <cstdio>

#include "core/dispersion.h"
#include "dynamic/churn_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "sim/trace.h"

int main() {
  using namespace dyndisp;

  const std::size_t rows = 4, cols = 5;
  const std::size_t n = rows * cols;  // 20 charging stations
  const std::size_t k = 14;           // 14 electric cars

  // City grid with road churn: 2 road segments swapped per round.
  ChurnAdversary roads(builders::grid(rows, cols), /*churn=*/2, /*seed=*/7);

  // Cars 1-7 in the garage at station (0,0), cars 8-14 at station (2,3).
  std::vector<NodeId> start(k);
  for (std::size_t i = 0; i < 7; ++i) start[i] = 0;
  for (std::size_t i = 7; i < k; ++i) start[i] = 2 * cols + 3;
  Configuration initial = placement::explicit_positions(n, std::move(start));

  EngineOptions options;
  options.max_rounds = 10 * k;
  Trace trace;
  options.on_round = record_into(trace);

  Engine engine(roads, std::move(initial), core::dispersion_factory(),
                options);
  const RunResult result = engine.run();

  std::printf("%zu cars, %zu stations, changing roads\n", k, n);
  std::printf("all cars at their own charger after %llu rounds "
              "(Theorem 4 guarantees <= %zu)\n\n",
              static_cast<unsigned long long>(result.rounds), k);

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& rec = trace.at(i);
    std::size_t moved = 0;
    for (const Port p : rec.moves)
      if (p != kInvalidPort) ++moved;
    std::printf("minute %zu: %zu cars relocated, %zu/%zu stations charging\n",
                i, moved, rec.after.occupied_count(), k);
  }

  std::printf("\nfinal charging map (%zux%zu grid, id = car, . = free):\n",
              rows, cols);
  const auto occ = result.final_config.occupancy();
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const NodeId v = static_cast<NodeId>(r * cols + c);
      const auto cars = result.final_config.robots_at(v);
      if (cars.empty())
        std::printf("  . ");
      else
        std::printf(" %2u ", cars.front());
    }
    std::printf("\n");
  }
  (void)occ;
  return result.dispersed ? 0 : 1;
}
