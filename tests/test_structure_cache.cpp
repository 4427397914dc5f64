// Tests for the cross-round StructureCache and the engine's delta-aware
// round loop built on it: exact hits, delta rebuilds, LRU eviction, and --
// the load-bearing property -- bitwise identity between cached and uncached
// runs for every Table-I model row and for the replay-heavy adversaries the
// cache targets.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/blind_walk.h"
#include "baselines/dfs_dispersion.h"
#include "baselines/greedy_local.h"
#include "core/dispersion.h"
#include "core/planner.h"
#include "core/structure_cache.h"
#include "dynamic/random_adversary.h"
#include "dynamic/scripted_adversary.h"
#include "dynamic/static_adversary.h"
#include "dynamic/t_interval_adversary.h"
#include "graph/builders.h"
#include "graph/fingerprint.h"
#include "robots/configuration.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "sim/reuse_hints.h"
#include "sim/sensing.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

using core::plan_round;
using core::PlannerConfig;
using core::SlidePlan;
using core::StructureCache;

PacketSet packets_for(const Graph& g, const Configuration& conf,
                      bool neighborhood = true) {
  return make_all_packets(g, conf, neighborhood);
}

/// The (graph, configuration, sensing) triple digest the engine attaches to
/// RobotViews; the cache only requires internal consistency, so computing it
/// the same way here suffices.
ReuseHints hints_for(const Graph& g, const Configuration& conf,
                     bool neighborhood = true) {
  ReuseHints h;
  h.valid = true;
  h.neighborhood = neighborhood;
  h.graph_fp = g.fingerprint();
  h.conf_digest = 0;
  for (RobotId id = 1; id <= conf.robot_count(); ++id) {
    if (!conf.alive(id)) continue;
    h.conf_digest ^= fp_mix((static_cast<std::uint64_t>(id) << 32) |
                            static_cast<std::uint64_t>(conf.position(id)));
  }
  return h;
}

// ---- StructureCache unit tests ----

TEST(StructureCache, ExactHitSharesThePlanUntouched) {
  const Graph g = builders::grid(4, 4);
  const Configuration conf(16, {0, 0, 0, 5, 9});
  StructureCache cache;
  const PacketSet packets = packets_for(g, conf);
  const auto first = cache.plan(packets, hints_for(g, conf), {});
  const auto again = cache.plan(packets, hints_for(g, conf), {});
  EXPECT_EQ(first.get(), again.get());  // shared, not recomputed
  EXPECT_EQ(*first, plan_round(packets));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.full_builds, 1u);
  EXPECT_EQ(stats.exact_hits, 1u);
  EXPECT_EQ(stats.delta_rounds, 0u);
}

TEST(StructureCache, ExactHitSurvivesAFreshHandle) {
  // Digests select the entry, contents confirm it: a byte-identical packet
  // set under a brand-new allocation must still hit (this is how trap
  // probes and repeated scripted rounds reuse structures).
  const Graph g = builders::lollipop(5, 4);
  const Configuration conf(9, {0, 0, 2, 7});
  StructureCache cache;
  const auto first = cache.plan(packets_for(g, conf), hints_for(g, conf), {});
  const auto again = cache.plan(packets_for(g, conf), hints_for(g, conf), {});
  EXPECT_EQ(first.get(), again.get());
  EXPECT_EQ(cache.stats().exact_hits, 1u);
}

TEST(StructureCache, DeltaRebuildReusesUntouchedComponents) {
  // Two far-apart components on a path; moving one robot inside the right
  // component must rebuild only that component and share the left one. The
  // left component is deliberately large: the delta path bails out to a
  // full build when more than half the senders are dirty, so the clean
  // majority is what keeps this a delta round.
  const Graph g = builders::path(16);
  Configuration conf(16, {0, 0, 1, 2, 3, 4, 12, 12});
  StructureCache cache;
  (void)cache.plan(packets_for(g, conf), hints_for(g, conf), {});
  conf.set_position(8, 14);  // robot 8: node 12 -> 14, away from the rest
  const auto plan = cache.plan(packets_for(g, conf), hints_for(g, conf), {});
  EXPECT_EQ(*plan, plan_round(make_all_packets(g, conf, true)));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.full_builds, 1u);
  EXPECT_EQ(stats.delta_rounds, 1u);
  EXPECT_GE(stats.components_reused, 1u);
  EXPECT_GE(stats.components_rebuilt, 1u);
}

TEST(StructureCache, MatchesPlanRoundOnRandomRounds) {
  // Property check: whatever mix of hits, deltas, and full builds a random
  // walk of configurations produces, every returned plan equals plan_round.
  Rng rng(1234);
  const Graph g = builders::random_connected(20, 8, rng);
  Configuration conf(20, {0, 0, 0, 0, 4, 4, 9, 13, 13, 17});
  StructureCache cache;
  for (int step = 0; step < 40; ++step) {
    const RobotId id = static_cast<RobotId>(1 + rng.below(10));
    conf.set_position(id, static_cast<NodeId>(rng.below(20)));
    const PacketSet packets = packets_for(g, conf);
    const auto plan = cache.plan(packets, hints_for(g, conf), {});
    EXPECT_EQ(*plan, plan_round(packets)) << "step " << step;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.exact_hits + stats.delta_rounds + stats.full_builds, 40u);
}

TEST(StructureCache, NeighborhoodIsPartOfTheKey) {
  // Same graph and configuration, different sensing model: the packet sets
  // differ, so the entries must not be confused for one another.
  const Graph g = builders::cycle(8);
  const Configuration conf(8, {0, 0, 3});
  StructureCache cache;
  const auto with = cache.plan(packets_for(g, conf, true),
                               hints_for(g, conf, true), {});
  const auto without = cache.plan(packets_for(g, conf, false),
                                  hints_for(g, conf, false), {});
  EXPECT_EQ(cache.stats().exact_hits, 0u);
  EXPECT_EQ(*with, plan_round(make_all_packets(g, conf, true)));
  EXPECT_EQ(*without, plan_round(make_all_packets(g, conf, false)));
}

TEST(StructureCache, EvictsLeastRecentlyUsedBeyondCapacity) {
  StructureCache cache(/*capacity=*/2);
  const Configuration conf(10, {0, 0, 4});
  const Graph graphs[] = {builders::path(10), builders::cycle(10),
                          builders::star(10)};
  for (const Graph& g : graphs)
    (void)cache.plan(packets_for(g, conf), hints_for(g, conf), {});
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The oldest entry (path) is gone: replaying it is a rebuild, while the
  // newest (star) still hits. "Rebuild" may be served as a delta off a
  // retained entry; either way it is not an exact hit.
  const std::uint64_t hits_before = cache.stats().exact_hits;
  (void)cache.plan(packets_for(graphs[2], conf),
                   hints_for(graphs[2], conf), {});
  EXPECT_EQ(cache.stats().exact_hits, hits_before + 1);
  (void)cache.plan(packets_for(graphs[0], conf),
                   hints_for(graphs[0], conf), {});
  EXPECT_EQ(cache.stats().exact_hits, hits_before + 1);
}

// ---- Engine-level bitwise identity: cached vs uncached ----

void expect_identical(const RunResult& a, const RunResult& b,
                      const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.dispersed, b.dispersed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_moves, b.total_moves);
  EXPECT_EQ(a.max_memory_bits, b.max_memory_bits);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packet_bits_sent, b.packet_bits_sent);
  EXPECT_EQ(a.stalled_rounds, b.stalled_rounds);
  EXPECT_EQ(a.max_occupied, b.max_occupied);
  EXPECT_EQ(a.explored_nodes, b.explored_nodes);
  EXPECT_EQ(a.exploration_round, b.exploration_round);
  EXPECT_TRUE(a.final_config == b.final_config);
}

struct ModelRow {
  const char* label;
  CommModel comm;
  bool neighborhood;
  AlgorithmFactory factory;
};

RunResult run_row(const ModelRow& row, bool structure_cache) {
  const std::size_t n = 36, k = 24;
  RandomAdversary adv(n, n / 3, 7);
  EngineOptions opt;
  opt.comm = row.comm;
  opt.neighborhood_knowledge = row.neighborhood;
  opt.max_rounds = 200;
  opt.structure_cache = structure_cache;
  Engine engine(adv, placement::rooted(n, k), row.factory, opt);
  return engine.run();
}

TEST(CacheDeterminism, AllTableOneModelRows) {
  // The delta-aware loop is a pure optimization: with the cache on or off,
  // every observable of the run is identical, for each Table-I model row
  // under its native model (the fuzzer repeats this differential over
  // random configurations; this pins the canonical rows).
  const ModelRow rows[] = {
      {"global+nbhd (Algorithm 4, memoized)", CommModel::kGlobal, true,
       core::dispersion_factory_memoized()},
      {"global-only (blind walk)", CommModel::kGlobal, false,
       baselines::blind_walk_factory()},
      {"local-only (DFS dispersion)", CommModel::kLocal, false,
       baselines::dfs_dispersion_factory()},
      {"local+nbhd (greedy)", CommModel::kLocal, true,
       baselines::greedy_local_factory()},
  };
  for (const ModelRow& row : rows)
    expect_identical(run_row(row, true), run_row(row, false), row.label);
}

RunResult run_replay(Adversary& adv, std::size_t n, std::size_t k,
                     bool structure_cache) {
  EngineOptions opt;
  opt.max_rounds = 20 * k;
  opt.structure_cache = structure_cache;
  Engine engine(adv, placement::rooted(n, k),
                core::dispersion_factory_memoized(), opt);
  return engine.run();
}

TEST(CacheDeterminism, ReplayHeavyAdversaries) {
  // The adversaries the cache actually accelerates -- identical results
  // with it on and off, and the cached run visibly reused work.
  const std::size_t n = 30, k = 20;
  {
    StaticAdversary on(builders::torus(5, 6)), off(builders::torus(5, 6));
    const RunResult cached = run_replay(on, n, k, true);
    expect_identical(cached, run_replay(off, n, k, false), "static torus");
    EXPECT_TRUE(cached.dispersed);
    EXPECT_GT(cached.stats.graph_reuses, 0u);
    EXPECT_GT(cached.stats.broadcasts_reused + cached.stats.broadcast_deltas,
              0u);
    EXPECT_GT(cached.stats.validations_skipped, 0u);
    // The planner consulted the cross-round cache (whether a given round is
    // an exact hit, a delta, or a full build depends on how much occupancy
    // moved -- the unit tests above pin each mode individually).
    EXPECT_GT(cached.stats.sc_exact_hits + cached.stats.sc_delta_rounds +
                  cached.stats.sc_full_builds,
              0u);
  }
  {
    const auto make = [&] {
      return TIntervalAdversary(
          std::make_unique<RandomAdversary>(n, n / 4, 3), 5);
    };
    TIntervalAdversary on = make(), off = make();
    const RunResult cached = run_replay(on, n, k, true);
    expect_identical(cached, run_replay(off, n, k, false), "t-interval");
    EXPECT_GT(cached.stats.graph_reuses, 0u);
  }
  {
    Rng rng(9);
    std::vector<Graph> script;
    for (int i = 0; i < 3; ++i)
      script.push_back(builders::random_connected(n, n / 2, rng));
    ScriptedAdversary on(script), off(script);
    const RunResult cached = run_replay(on, n, k, true);
    expect_identical(cached, run_replay(off, n, k, false),
                     "scripted, repeat-last horizon");
    EXPECT_GT(cached.stats.graph_reuses, 0u);
  }
}

TEST(CacheDeterminism, UncachedRunReportsNoReuse) {
  // --no-structure-cache must reproduce the rebuild-everything loop, and
  // its stats must say so: reporting reuse it cannot perform would poison
  // any analysis built on the counters.
  StaticAdversary adv(builders::torus(5, 6));
  const RunResult r = run_replay(adv, 30, 20, false);
  EXPECT_EQ(r.stats.graph_reuses, 0u);
  EXPECT_EQ(r.stats.same_graph_rounds, 0u);
  EXPECT_EQ(r.stats.validations_skipped, 0u);
  EXPECT_EQ(r.stats.broadcasts_reused, 0u);
  EXPECT_EQ(r.stats.broadcast_deltas, 0u);
  EXPECT_EQ(r.stats.sc_exact_hits, 0u);
  EXPECT_EQ(r.stats.sc_delta_rounds, 0u);
  EXPECT_EQ(r.stats.sc_full_builds, 0u);
}

}  // namespace
}  // namespace dyndisp
