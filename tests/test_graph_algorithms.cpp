// Tests for BFS/diameter/components/path utilities and graph IO/local views.
#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/builders.h"
#include "graph/io.h"
#include "graph/local_view.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

TEST(BfsDistances, OnPath) {
  const Graph g = builders::path(5);
  const auto d = bfs_distances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(BfsDistances, UnreachableMarked) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_EQ(d[3], kUnreachable);
}

TEST(IsConnected, DetectsBothCases) {
  EXPECT_TRUE(is_connected(builders::cycle(5)));
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(Graph(1)));
  EXPECT_TRUE(is_connected(Graph(0)));
}

TEST(ConnectedComponents, TwoComponents) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
}

TEST(Diameter, KnownGraphs) {
  EXPECT_EQ(diameter(builders::path(7)), 6u);
  EXPECT_EQ(diameter(builders::star(10)), 2u);
  EXPECT_EQ(diameter(builders::complete(6)), 1u);
  EXPECT_EQ(diameter(builders::cycle(8)), 4u);
  EXPECT_EQ(diameter(Graph(1)), 0u);
}

TEST(Eccentricity, CenterVsLeafOfStar) {
  const Graph g = builders::star(6);
  EXPECT_EQ(eccentricity(g, 0), 1u);
  EXPECT_EQ(eccentricity(g, 3), 2u);
}

TEST(BfsTree, ParentPointersValid) {
  const Graph g = builders::grid(3, 3);
  const auto parent = bfs_tree(g, 4);
  EXPECT_EQ(parent[4], 4u);
  for (NodeId v = 0; v < 9; ++v) {
    if (v == 4) continue;
    EXPECT_TRUE(g.has_edge(v, parent[v])) << "node " << v;
  }
}

TEST(ShortestPath, EndpointsInclusive) {
  const Graph g = builders::path(6);
  const auto p = shortest_path(g, 1, 4);
  EXPECT_EQ(p, (std::vector<NodeId>{1, 2, 3, 4}));
}

TEST(ShortestPath, SameNode) {
  const Graph g = builders::path(3);
  EXPECT_EQ(shortest_path(g, 2, 2), std::vector<NodeId>{2});
}

TEST(ShortestPath, Unreachable) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(shortest_path(g, 0, 2).empty());
}

TEST(IsTree, Classification) {
  EXPECT_TRUE(is_tree(builders::path(4)));
  EXPECT_TRUE(is_tree(builders::star(5)));
  EXPECT_FALSE(is_tree(builders::cycle(4)));
  Rng rng(3);
  EXPECT_TRUE(is_tree(builders::random_tree(30, rng)));
}

// ---- IO ----

TEST(GraphIo, EdgeListRoundTrip) {
  const Graph g = builders::grid(2, 3);
  const Graph h = from_edge_list(to_edge_list(g));
  EXPECT_EQ(g, h);  // builders insert edges deterministically, ports match
}

TEST(GraphIo, EdgeListRejectsMalformed) {
  EXPECT_THROW(from_edge_list(""), std::invalid_argument);
  EXPECT_THROW(from_edge_list("2 1\n"), std::invalid_argument);       // truncated
  EXPECT_THROW(from_edge_list("2 1\n0 5\n"), std::invalid_argument);  // range
  EXPECT_THROW(from_edge_list("2 1\n1 1\n"), std::invalid_argument);  // loop
  EXPECT_THROW(from_edge_list("2 2\n0 1\n0 1\n"), std::invalid_argument);
  // The same edge listed the other way round is a duplicate too.
  EXPECT_THROW(from_edge_list("3 3\n0 1\n1 2\n1 0\n"),
               std::invalid_argument);
}

TEST(GraphIo, EdgeListRejectsHostileCountsBeforeSizing) {
  EXPECT_THROW(from_edge_list("99999999999999 0"), std::invalid_argument);
  EXPECT_THROW(from_edge_list("3 99999999999999"), std::invalid_argument);
}

TEST(GraphIo, DotContainsNodesAndEdges) {
  const Graph g = builders::path(3);
  const std::string dot = to_dot(g, {2, 0, 1});
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("salmon"), std::string::npos);     // multiplicity node
  EXPECT_NE(dot.find("lightblue"), std::string::npos);  // single-robot node
}

// ---- Local views (Theorem 1 symmetry machinery) ----

TEST(LocalView, ExtractsOwnAndNeighborCounts) {
  const Graph g = builders::path(4);  // 0-1-2-3
  const std::vector<std::size_t> occ{2, 1, 1, 0};
  const LocalView v = local_view(g, 1, occ);
  EXPECT_EQ(v.own_count, 1u);
  EXPECT_EQ(v.degree, 2u);
  EXPECT_EQ(v.neighbor_counts.size(), 2u);
}

TEST(LocalView, CanonicalEncodingIgnoresPortOrder) {
  Graph g(3);
  g.add_edge(1, 0);
  g.add_edge(1, 2);
  const std::vector<std::size_t> occ{3, 1, 0};
  const LocalView v = local_view(g, 1, occ);
  LocalView flipped = v;
  std::swap(flipped.neighbor_counts[0], flipped.neighbor_counts[1]);
  EXPECT_NE(encode_view(v), encode_view(flipped));
  EXPECT_EQ(encode_view_canonical(v), encode_view_canonical(flipped));
}

TEST(LocalView, Figure1InteriorNodesSymmetric) {
  // Fig. 1 with k = 6: path v-u-w-x-y plus an empty blob past y.
  // Nodes: 0=v(2 robots) 1=u 2=w 3=x 4=y, 5..7 empty blob.
  Graph g(8);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 6);
  g.add_edge(5, 7);
  const std::vector<std::size_t> occ{2, 1, 1, 1, 1, 0, 0, 0};
  // The paper's argument: w and x have identical local information (one
  // occupied singleton neighbor on each side), so no deterministic
  // port-oblivious rule can orient them both toward y.
  EXPECT_TRUE(views_symmetric(g, 2, 3, occ));
  // Whereas y sees an empty neighbor and is NOT symmetric to w.
  EXPECT_FALSE(views_symmetric(g, 2, 4, occ));
  // And the doubled end v is distinguishable from everything on the path.
  EXPECT_FALSE(views_symmetric(g, 0, 2, occ));
}

}  // namespace
}  // namespace dyndisp
