// Microbenchmarks (google-benchmark) of the paper's building blocks:
// Algorithm 1 (component construction), Algorithm 2 (spanning tree),
// Algorithm 3 (disjoint paths), the full per-round plan (one-shot and from
// a warm planner workspace), and one engine round, as a function of the
// number of robots. Complements the round/memory tables with the
// simulator-side computational cost of Section V-VI.
#include <benchmark/benchmark.h>

#include "core/component.h"
#include "core/disjoint_paths.h"
#include "core/dispersion.h"
#include "core/planner.h"
#include "core/spanning_tree.h"
#include "dynamic/random_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "sim/sensing.h"
#include "util/rng.h"

namespace {

using namespace dyndisp;

struct RoundInput {
  Graph g;
  Configuration conf;
  std::vector<InfoPacket> packets;
};

RoundInput make_round(std::size_t k) {
  const std::size_t n = k + k / 2 + 2;
  Rng rng(k * 17 + 1);
  RoundInput input{builders::random_connected(n, n, rng),
                   placement::grouped(n, k, std::max<std::size_t>(2, k / 2),
                                      rng),
                   {}};
  input.packets = make_all_packets(input.g, input.conf, true);
  return input;
}

void BM_Alg1_BuildComponent(benchmark::State& state) {
  const RoundInput input = make_round(static_cast<std::size_t>(state.range(0)));
  const RobotId start = input.packets.front().sender;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_component(input.packets, start));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Alg1_BuildComponent)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_Alg2_SpanningTree(benchmark::State& state) {
  const RoundInput input = make_round(static_cast<std::size_t>(state.range(0)));
  const auto components = core::build_all_components(input.packets);
  const core::ComponentGraph* with_mult = nullptr;
  for (const auto& cg : components)
    if (cg.has_multiplicity()) with_mult = &cg;
  if (with_mult == nullptr) {
    state.SkipWithError("no multiplicity component");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_spanning_tree(*with_mult));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Alg2_SpanningTree)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_Alg3_DisjointPaths(benchmark::State& state) {
  const RoundInput input = make_round(static_cast<std::size_t>(state.range(0)));
  const auto components = core::build_all_components(input.packets);
  const core::ComponentGraph* with_mult = nullptr;
  for (const auto& cg : components)
    if (cg.has_multiplicity()) with_mult = &cg;
  if (with_mult == nullptr) {
    state.SkipWithError("no multiplicity component");
    return;
  }
  const core::SpanningTree st = core::build_spanning_tree(*with_mult);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::disjoint_paths(*with_mult, st));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Alg3_DisjointPaths)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_Alg4_PlanRound(benchmark::State& state) {
  const RoundInput input = make_round(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::plan_round(input.packets));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Alg4_PlanRound)->RangeMultiplier(2)->Range(8, 256)->Complexity();

// The PlanCache miss path: the same plan from a warm retained workspace, on
// a packet set packed once (BM_Alg4_PlanRound packs its record vector into
// a fresh arena and builds a fresh workspace on every call).
void BM_Alg4_PlanRoundWarmWorkspace(benchmark::State& state) {
  const RoundInput input = make_round(static_cast<std::size_t>(state.range(0)));
  const PacketSet packets(input.packets);
  core::PlanWorkspace workspace;
  workspace.plan_round(packets, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(workspace.plan_round(packets, {}).size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Alg4_PlanRoundWarmWorkspace)
    ->RangeMultiplier(2)
    ->Range(8, 256)
    ->Complexity();

void BM_PacketAssembly(benchmark::State& state) {
  const RoundInput input = make_round(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_all_packets(input.g, input.conf, true));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PacketAssembly)->RangeMultiplier(2)->Range(8, 256)->Complexity();

// One full dispersion run per iteration: faithful vs memoized planner.
void BM_FullRun_Faithful(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t n = k + k / 2;
  for (auto _ : state) {
    RandomAdversary adv(n, n / 3, 7);
    EngineOptions opt;
    opt.max_rounds = 10 * k;
    Engine engine(adv, placement::rooted(n, k), core::dispersion_factory(),
                  opt);
    benchmark::DoNotOptimize(engine.run());
  }
}
BENCHMARK(BM_FullRun_Faithful)->RangeMultiplier(2)->Range(8, 64);

void BM_FullRun_Memoized(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t n = k + k / 2;
  for (auto _ : state) {
    RandomAdversary adv(n, n / 3, 7);
    EngineOptions opt;
    opt.max_rounds = 10 * k;
    Engine engine(adv, placement::rooted(n, k),
                  core::dispersion_factory_memoized(), opt);
    benchmark::DoNotOptimize(engine.run());
  }
}
BENCHMARK(BM_FullRun_Memoized)->RangeMultiplier(2)->Range(8, 64);

}  // namespace

BENCHMARK_MAIN();
