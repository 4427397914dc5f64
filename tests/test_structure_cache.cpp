// Tests for the cross-round StructureCache: exact hits, delta rebuilds, LRU
// eviction, and -- the load-bearing property -- every plan it serves equals
// plan_round's on the same packets. Engine-level reuse is covered by the
// broadcast-reference oracle (test_conformance.cpp) and by
// Dispersion.MemoizedModeIdenticalToFaithful.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/planner.h"
#include "core/structure_cache.h"
#include "graph/builders.h"
#include "graph/fingerprint.h"
#include "robots/configuration.h"
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

}  // namespace
}  // namespace dyndisp
