// Tests for Algorithms 1-3 (components, spanning trees, disjoint paths) on a
// hand-computed worked example plus property sweeps over random rounds.
//
// Worked example (8 nodes; ports assigned by insertion order):
//   edges: (0,1) (1,2) (0,2) (2,3) (3,4) (4,5) (5,6) (6,7)
//   robots: {1,4}@0 {2}@1 {3}@2 {5,6}@5 {7}@6 ; nodes 3,4,7 empty
// Two components: A = occupied {0,1,2} (names 1,2,3), B = {5,6} (names 5,7),
// at graph distance >= 2 (Observation 2).
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "core/component.h"
#include "core/disjoint_paths.h"
#include "core/spanning_tree.h"
#include "graph/builders.h"
#include "robots/configuration.h"
#include "robots/placement.h"
#include "sim/sensing.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

using core::build_all_components;
using core::build_component;
using core::build_spanning_tree;
using core::ComponentGraph;
using core::disjoint_paths;
using core::leaf_node_set;
using core::paths_disjoint;
using core::RootPath;
using core::SpanningTree;

/// A span accessor's contents, for EXPECT_EQ with readable failures.
template <typename T>
std::vector<T> vec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

struct Worked {
  Graph g = Graph::from_edges(
      8, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}});
  Configuration conf{8, {0, 1, 2, 0, 5, 5, 6}};
  std::vector<InfoPacket> packets = make_all_packets(g, conf, true);
};

TEST(Component, WorkedExampleComponentA) {
  Worked w;
  const ComponentGraph cg = build_component(w.packets, 1);
  ASSERT_EQ(cg.size(), 3u);
  EXPECT_TRUE(cg.contains(1));
  EXPECT_TRUE(cg.contains(2));
  EXPECT_TRUE(cg.contains(3));
  EXPECT_FALSE(cg.contains(5));

  const auto* n1 = cg.find(1);
  ASSERT_NE(n1, nullptr);
  EXPECT_EQ(n1->count, 2u);
  EXPECT_EQ(vec(cg.robots(*n1)), (std::vector<RobotId>{1, 4}));
  EXPECT_EQ(n1->degree, 2u);
  EXPECT_EQ(vec(cg.edges(*n1)),
            (std::vector<std::pair<Port, RobotId>>{{1, 2}, {2, 3}}));
  EXPECT_FALSE(n1->has_empty_neighbor());

  const auto* n3 = cg.find(3);
  ASSERT_NE(n3, nullptr);
  EXPECT_EQ(n3->degree, 3u);
  EXPECT_TRUE(n3->has_empty_neighbor());
}

TEST(Component, WorkedExampleComponentB) {
  Worked w;
  const ComponentGraph cg = build_component(w.packets, 7);
  ASSERT_EQ(cg.size(), 2u);
  EXPECT_TRUE(cg.contains(5));
  EXPECT_TRUE(cg.contains(7));
  EXPECT_EQ(cg.root_name(), 5u);
  EXPECT_EQ(cg.robot_count(), 3u);
}

TEST(Component, SameComponentFromAnyStart) {
  // Lemma 1: robots on different nodes of a component build the same CG.
  Worked w;
  const ComponentGraph a = build_component(w.packets, 1);
  const ComponentGraph b = build_component(w.packets, 2);
  const ComponentGraph c = build_component(w.packets, 3);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), c.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.nodes()[i].name, b.nodes()[i].name);
    EXPECT_EQ(vec(a.edges(a.nodes()[i])), vec(b.edges(b.nodes()[i])));
    EXPECT_EQ(vec(a.edges(a.nodes()[i])), vec(c.edges(c.nodes()[i])));
    EXPECT_EQ(vec(a.robots(a.nodes()[i])), vec(b.robots(b.nodes()[i])));
  }
}

TEST(Component, BuildAllFindsBothComponents) {
  Worked w;
  const auto components = build_all_components(w.packets);
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0].size(), 3u);
  EXPECT_EQ(components[1].size(), 2u);
}

TEST(Component, UniqueNames) {
  // Observation 1: every node of a component has a unique name.
  Worked w;
  for (const auto& cg : build_all_components(w.packets)) {
    std::set<RobotId> names;
    for (const auto& n : cg.nodes()) names.insert(n.name);
    EXPECT_EQ(names.size(), cg.size());
  }
}

TEST(Component, RootIsSmallestMultiplicityNode) {
  Worked w;
  const ComponentGraph a = build_component(w.packets, 1);
  EXPECT_EQ(a.root_name(), 1u);
  EXPECT_TRUE(a.has_multiplicity());
}

TEST(Component, NoMultiplicityMeansNoRoot) {
  const Graph g = builders::path(4);
  const Configuration conf(4, {0, 1, 2});
  const auto packets = make_all_packets(g, conf, true);
  const ComponentGraph cg = build_component(packets, 1);
  EXPECT_FALSE(cg.has_multiplicity());
  EXPECT_EQ(cg.root_name(), kNoRobot);
}

TEST(SpanningTree, WorkedExampleTreeA) {
  Worked w;
  const ComponentGraph cg = build_component(w.packets, 1);
  const SpanningTree st = build_spanning_tree(cg);
  EXPECT_EQ(st.root(), 1u);
  ASSERT_EQ(st.size(), 3u);

  // DFS explores smallest ports first: 1 -> 2 (port 1), then 2 -> 3.
  const auto* t2 = st.find(2);
  ASSERT_NE(t2, nullptr);
  EXPECT_EQ(t2->parent, 1u);
  EXPECT_EQ(t2->port_from_parent, 1u);
  EXPECT_EQ(t2->port_to_parent, 1u);
  EXPECT_EQ(t2->depth, 1u);

  const auto* t3 = st.find(3);
  ASSERT_NE(t3, nullptr);
  EXPECT_EQ(t3->parent, 2u);
  EXPECT_EQ(t3->port_from_parent, 2u);
  EXPECT_EQ(t3->port_to_parent, 1u);
  EXPECT_EQ(t3->depth, 2u);

  const auto* t1 = st.find(1);
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(t1->parent, kNoRobot);
  ASSERT_EQ(st.children(*t1).size(), 1u);
  EXPECT_EQ(st.children(*t1)[0].second, 2u);
}

TEST(SpanningTree, RootPathsRootFirst) {
  Worked w;
  const ComponentGraph cg = build_component(w.packets, 1);
  const SpanningTree st = build_spanning_tree(cg);
  EXPECT_EQ(st.root_path(3), (RootPath{1, 2, 3}));
  EXPECT_EQ(st.root_path(1), (RootPath{1}));
}

TEST(SpanningTree, SameTreeFromAnyRobot) {
  // Lemma 2 via determinism: identical CGs yield identical trees.
  Worked w;
  const SpanningTree a = build_spanning_tree(build_component(w.packets, 2));
  const SpanningTree b = build_spanning_tree(build_component(w.packets, 3));
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.root(), b.root());
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    EXPECT_EQ(a.nodes()[i].name, b.nodes()[i].name);
    EXPECT_EQ(a.nodes()[i].parent, b.nodes()[i].parent);
    EXPECT_EQ(a.nodes()[i].port_to_parent, b.nodes()[i].port_to_parent);
    EXPECT_EQ(vec(a.children(a.nodes()[i])), vec(b.children(b.nodes()[i])));
  }
}

TEST(DisjointPaths, WorkedExampleComponentA) {
  Worked w;
  const ComponentGraph cg = build_component(w.packets, 1);
  const SpanningTree st = build_spanning_tree(cg);
  EXPECT_EQ(leaf_node_set(cg, st), (std::vector<RobotId>{3}));
  const auto paths = disjoint_paths(cg, st);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (RootPath{1, 2, 3}));
}

TEST(DisjointPaths, WorkedExampleComponentB) {
  Worked w;
  const ComponentGraph cg = build_component(w.packets, 5);
  const SpanningTree st = build_spanning_tree(cg);
  // Both nodes border empty nodes; the root's trivial path comes first.
  EXPECT_EQ(leaf_node_set(cg, st), (std::vector<RobotId>{5, 7}));
  const auto paths = disjoint_paths(cg, st);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], (RootPath{5}));
  EXPECT_EQ(paths[1], (RootPath{5, 7}));
}

TEST(DisjointPaths, PairwiseDisjointnessHelper) {
  EXPECT_TRUE(paths_disjoint({1, 2, 3}, {1, 4, 5}));
  EXPECT_FALSE(paths_disjoint({1, 2, 3}, {1, 3}));
  EXPECT_TRUE(paths_disjoint({1}, {1, 2}));  // trivial path conflicts nothing
}

// ---- Property sweep: random rounds, all structural lemmas ----

class CoreStructureSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoreStructureSweep, LemmasHoldOnRandomRounds) {
  Rng rng(GetParam());
  const std::size_t n = 3 + rng.below(20);
  const std::size_t k = 2 + rng.below(n - 1);
  const Graph g = builders::random_connected(n, rng.below(n), rng);
  const Configuration conf = placement::uniform_random(n, k, rng);
  const auto packets = make_all_packets(g, conf, true);
  const auto occ = conf.occupancy();

  const auto components = build_all_components(packets);

  // Every occupied node appears in exactly one component.
  std::set<RobotId> all_names;
  std::size_t total_nodes = 0;
  for (const auto& cg : components) {
    total_nodes += cg.size();
    for (const auto& node : cg.nodes()) all_names.insert(node.name);
  }
  EXPECT_EQ(total_nodes, conf.occupied_count());
  EXPECT_EQ(all_names.size(), total_nodes);

  for (const auto& cg : components) {
    // Lemma 1: every robot in the component reconstructs it identically.
    for (const auto& node : cg.nodes()) {
      const ComponentGraph rebuilt = build_component(packets, node.name);
      ASSERT_EQ(rebuilt.size(), cg.size());
      for (std::size_t i = 0; i < cg.size(); ++i) {
        EXPECT_EQ(rebuilt.nodes()[i].name, cg.nodes()[i].name);
        EXPECT_EQ(vec(rebuilt.edges(rebuilt.nodes()[i])),
                  vec(cg.edges(cg.nodes()[i])));
      }
    }
    if (!cg.has_multiplicity()) continue;

    const SpanningTree st = build_spanning_tree(cg);
    // Observation 3: the tree spans the component with a distinct root.
    EXPECT_EQ(st.size(), cg.size());
    const auto* root_cn = cg.find(st.root());
    ASSERT_NE(root_cn, nullptr);
    EXPECT_GE(root_cn->count, 2u);

    // Tree edges must be component edges.
    for (const auto& tn : st.nodes()) {
      if (tn.parent == kNoRobot) continue;
      const auto* cn = cg.find(tn.name);
      ASSERT_NE(cn, nullptr);
      bool found = false;
      for (const auto& [port, nb] : cg.edges(*cn))
        found |= (nb == tn.parent && port == tn.port_to_parent);
      EXPECT_TRUE(found) << "tree edge missing from component";
    }

    const auto paths = disjoint_paths(cg, st);
    // Lemma 3: at least one path.
    EXPECT_GE(paths.size(), 1u);
    std::set<RobotId> used;
    for (const auto& path : paths) {
      ASSERT_FALSE(path.empty());
      // All paths start at the root.
      EXPECT_EQ(path.front(), st.root());
      // Lemma 5: the path end has an empty neighbor.
      const auto* end_cn = cg.find(path.back());
      ASSERT_NE(end_cn, nullptr);
      EXPECT_TRUE(end_cn->has_empty_neighbor());
      // Observation 4: non-root nodes belong to at most one path.
      for (std::size_t i = 1; i < path.size(); ++i) {
        EXPECT_TRUE(used.insert(path[i]).second)
            << "node " << path[i] << " on two root paths";
      }
    }
  }

  // Observation 2: nodes of different components are >= 2 hops apart in G.
  if (components.size() >= 2) {
    const auto dist_ok = [&](NodeId a, NodeId b) {
      if (g.has_edge(a, b)) return false;
      return true;
    };
    // Map names back to nodes via smallest robot position.
    for (std::size_t i = 0; i < components.size(); ++i) {
      for (std::size_t j = i + 1; j < components.size(); ++j) {
        for (const auto& na : components[i].nodes()) {
          for (const auto& nb : components[j].nodes()) {
            EXPECT_TRUE(dist_ok(conf.position(na.name), conf.position(nb.name)))
                << "components " << i << "," << j << " are adjacent";
          }
        }
      }
    }
  }
  (void)occ;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreStructureSweep,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace dyndisp
