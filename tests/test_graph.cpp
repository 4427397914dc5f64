// Unit tests for the port-labeled anonymous graph.
#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "graph/builders.h"
#include "graph/graph.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Graph, AddEdgeAssignsSequentialPorts) {
  Graph g(4);
  const auto [p01u, p01v] = g.add_edge(0, 1);
  EXPECT_EQ(p01u, 1u);
  EXPECT_EQ(p01v, 1u);
  const auto [p02u, p02v] = g.add_edge(0, 2);
  EXPECT_EQ(p02u, 2u);  // second edge at node 0
  EXPECT_EQ(p02v, 1u);  // first edge at node 2
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(Graph, ReversePortsConsistent) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  for (NodeId v = 0; v < 3; ++v) {
    for (Port p = 1; p <= g.degree(v); ++p) {
      const HalfEdge& he = g.half_edge(v, p);
      EXPECT_EQ(g.half_edge(he.to, he.reverse_port).to, v);
      EXPECT_EQ(g.half_edge(he.to, he.reverse_port).reverse_port, p);
    }
  }
  EXPECT_TRUE(g.validate().empty());
}

TEST(Graph, HasEdgeAndPortTo) {
  Graph g(4);
  g.add_edge(2, 3);
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_TRUE(g.has_edge(3, 2));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.port_to(2, 3), 1u);
  EXPECT_EQ(g.port_to(0, 1), kInvalidPort);
}

TEST(Graph, NeighborResolvesPort) {
  Graph g(3);
  g.add_edge(0, 2);
  g.add_edge(0, 1);
  EXPECT_EQ(g.neighbor(0, 1), 2u);
  EXPECT_EQ(g.neighbor(0, 2), 1u);
}

TEST(Graph, RemoveEdgeCompactsPorts) {
  Graph g(4);
  g.add_edge(0, 1);  // port 1 at 0
  g.add_edge(0, 2);  // port 2 at 0
  g.add_edge(0, 3);  // port 3 at 0
  ASSERT_TRUE(g.remove_edge(0, 2));
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.degree(0), 2u);
  // Former port 3 (to node 3) slid down to port 2.
  EXPECT_EQ(g.neighbor(0, 1), 1u);
  EXPECT_EQ(g.neighbor(0, 2), 3u);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Graph, RemoveMissingEdgeReturnsFalse) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(g.remove_edge(1, 2));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, RemoveEdgeFixesReversePortsAtFarEndpoints) {
  // Build a node with several edges, remove a middle one, and check every
  // remaining half-edge still round-trips.
  Graph g(6);
  for (NodeId v = 1; v < 6; ++v) g.add_edge(0, v);
  g.add_edge(1, 2);
  ASSERT_TRUE(g.remove_edge(0, 3));
  EXPECT_TRUE(g.validate().empty());
}

TEST(Graph, PermutePortsKeepsValidity) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.permute_ports(0, {2, 0, 1});  // old port1 -> new port3, etc.
  EXPECT_EQ(g.neighbor(0, 3), 1u);
  EXPECT_EQ(g.neighbor(0, 1), 2u);
  EXPECT_EQ(g.neighbor(0, 2), 3u);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Graph, ShufflePortsPreservesTopology) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 0);
  Rng rng(99);
  g.shuffle_ports(rng);
  EXPECT_TRUE(g.validate().empty());
  EXPECT_EQ(g.edge_count(), 6u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(5, 0));
}

// The counter relabeling refolds its fingerprint from the new rows; it
// stays valid, equal to the one from_port_edges derives, and equal on one
// and two lanes, with each caller's staging reused across calls.
TEST(Graph, ShufflePortsCounterStaysValidAndFingerprinted) {
  Rng rng(19);
  ThreadPool two_lanes(2);
  Graph::ShuffleScratch serial_scratch, pooled_scratch;
  for (const std::size_t n : {1u, 2u, 40u, 300u}) {
    Graph serial = builders::random_connected(n, n, rng);
    Graph pooled = serial;
    for (std::uint64_t draw = 0; draw < 4; ++draw) {
      serial.shuffle_ports_counter(5, draw, nullptr, serial_scratch);
      pooled.shuffle_ports_counter(5, draw, &two_lanes, pooled_scratch);
      ASSERT_EQ(serial.validate(), "") << "n=" << n << " draw=" << draw;
      ASSERT_TRUE(serial == pooled) << "n=" << n << " draw=" << draw;
      ASSERT_EQ(serial.fingerprint(),
                Graph::from_port_edges(n, serial.edges()).fingerprint())
          << "n=" << n << " draw=" << draw;
    }
  }
}

TEST(Graph, EdgesListsEachEdgeOnce) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  const auto edges = g.edges();
  EXPECT_EQ(edges.size(), 4u);
  for (const auto& e : edges) {
    EXPECT_LT(e.u, e.v);
    EXPECT_EQ(g.neighbor(e.u, e.port_u), e.v);
    EXPECT_EQ(g.neighbor(e.v, e.port_v), e.u);
  }
}

TEST(Graph, FromPortEdgesRejectsPortAboveEdgeCount) {
  // Node 0 has one edge, so port 2 leaves a gap below it, and a port near
  // 2^32 would ask for gigabytes if rows were sized by their highest port.
  EXPECT_THROW(Graph::from_port_edges(2, {{0, 1, 2, 1}}),
               std::invalid_argument);
  EXPECT_THROW(Graph::from_port_edges(2, {{0, 1, 4000000000u, 1}}),
               std::invalid_argument);
  EXPECT_THROW(Graph::from_port_edges(3, {{0, 1, 1, 1}, {0, 2, 1, 1}}),
               std::invalid_argument);  // duplicate port at node 0
  EXPECT_THROW(Graph::from_port_edges(2, {{0, 1, 1, 1}, {1, 0, 2, 2}}),
               std::invalid_argument);  // parallel edge
}

TEST(Graph, FromEdgesMatchesManualConstruction) {
  const Graph a = Graph::from_edges(3, {{0, 1}, {1, 2}});
  Graph b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  EXPECT_EQ(a, b);
}

TEST(Graph, AssignEdgesRefillsAWarmGraphLikeAddEdge) {
  // Shrinking, then growing, a recycled graph: each refill must equal the
  // add_edge sequence over the same list, fingerprint included.
  Graph g = builders::complete(6);
  const std::vector<std::pair<NodeId, NodeId>> lists[] = {
      {{2, 0}, {0, 1}, {3, 0}, {1, 2}},
      {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {0, 7}, {2, 6}},
      {}};
  const std::size_t sizes[] = {4, 8, 3};
  for (std::size_t i = 0; i < 3; ++i) {
    g.assign_edges(sizes[i], lists[i]);
    Graph manual(sizes[i]);
    for (const auto& [u, v] : lists[i]) manual.add_edge(u, v);
    EXPECT_EQ(g, manual) << "list " << i;
    EXPECT_EQ(g.fingerprint(), manual.fingerprint()) << "list " << i;
    EXPECT_EQ(g.edge_count(), lists[i].size());
    EXPECT_TRUE(g.validate().empty()) << g.validate();
  }
}

TEST(Graph, EqualityDetectsPortDifferences) {
  Graph a(3), b(3);
  a.add_edge(0, 1);
  a.add_edge(0, 2);
  b.add_edge(0, 2);
  b.add_edge(0, 1);
  EXPECT_FALSE(a == b);  // same topology, different port labels
}

// Recomputes the fingerprint from scratch via the edges() round-trip; the
// incremental accumulator must agree after any mutation sequence.
std::uint64_t recomputed_fingerprint(const Graph& g) {
  return Graph::from_port_edges(g.node_count(), g.edges()).fingerprint();
}

TEST(GraphFingerprint, EmptyGraphsDifferByNodeCount) {
  EXPECT_NE(Graph(3).fingerprint(), Graph(4).fingerprint());
  EXPECT_EQ(Graph(3).fingerprint(), Graph(3).fingerprint());
}

TEST(GraphFingerprint, EqualGraphsEqualFingerprints) {
  const Graph a = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const Graph b = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(GraphFingerprint, PortLabelsAreFingerprinted) {
  // Same topology, different port order at node 0.
  Graph a(3), b(3);
  a.add_edge(0, 1);
  a.add_edge(0, 2);
  b.add_edge(0, 2);
  b.add_edge(0, 1);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(GraphFingerprint, InsertionOrderIrrelevantWhenPortsMatch) {
  // from_port_edges pins explicit ports, so listing edges in any order must
  // reach the same accumulator value.
  const std::vector<Graph::Edge> fwd = {{0, 1, 1, 1}, {1, 2, 2, 1}};
  const std::vector<Graph::Edge> rev = {{1, 2, 2, 1}, {0, 1, 1, 1}};
  EXPECT_EQ(Graph::from_port_edges(3, fwd).fingerprint(),
            Graph::from_port_edges(3, rev).fingerprint());
}

TEST(GraphFingerprint, IncrementalMatchesRecomputeAcrossMutations) {
  Rng rng(1234);
  Graph g = Graph::from_edges(
      8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}});
  EXPECT_EQ(g.fingerprint(), recomputed_fingerprint(g));

  g.add_edge(0, 4);
  EXPECT_EQ(g.fingerprint(), recomputed_fingerprint(g));
  g.add_edge(1, 5);
  g.add_edge(2, 6);
  EXPECT_EQ(g.fingerprint(), recomputed_fingerprint(g));

  // Remove a middle-port edge so compaction shifts later ports.
  ASSERT_TRUE(g.remove_edge(0, 7));
  EXPECT_EQ(g.fingerprint(), recomputed_fingerprint(g));
  ASSERT_TRUE(g.remove_edge(1, 5));
  EXPECT_EQ(g.fingerprint(), recomputed_fingerprint(g));

  g.permute_ports(0, {1, 0});
  EXPECT_EQ(g.fingerprint(), recomputed_fingerprint(g));
  g.shuffle_ports(rng);
  EXPECT_EQ(g.fingerprint(), recomputed_fingerprint(g));
  EXPECT_TRUE(g.validate().empty());
}

TEST(GraphFingerprint, RandomizedMutationChurnStaysInSync) {
  Rng rng(77);
  Graph g(12);
  for (int step = 0; step < 400; ++step) {
    const NodeId u = static_cast<NodeId>(rng.below(12));
    const NodeId v = static_cast<NodeId>(rng.below(12));
    if (u == v) continue;
    if (g.has_edge(u, v)) {
      g.remove_edge(u, v);
    } else {
      g.add_edge(u, v);
    }
    if (step % 7 == 0) g.shuffle_ports(rng);
    ASSERT_EQ(g.fingerprint(), recomputed_fingerprint(g)) << "step " << step;
  }
  EXPECT_TRUE(g.validate().empty());
}

TEST(GraphDelta, IdenticalGraphsAreEmpty) {
  const Graph a = Graph::from_edges(4, {{0, 1}, {1, 2}});
  const Graph b = Graph::from_edges(4, {{0, 1}, {1, 2}});
  std::vector<NodeId> changed;
  EXPECT_TRUE(a.changed_nodes_into(b, changed, 0));
  EXPECT_TRUE(changed.empty());
}

TEST(GraphDelta, NodeCountMismatchShortCircuits) {
  std::vector<NodeId> changed;
  EXPECT_FALSE(Graph(3).changed_nodes_into(Graph(4), changed, 10));
}

TEST(GraphDelta, AddedEdgeReportsBothEndpoints) {
  const Graph prev = Graph::from_edges(4, {{0, 1}});
  Graph next = prev;
  next.add_edge(2, 3);
  std::vector<NodeId> changed;
  EXPECT_TRUE(next.changed_nodes_into(prev, changed, 4));
  EXPECT_EQ(changed, (std::vector<NodeId>{2, 3}));
}

TEST(GraphDelta, RemovalWithPortCompactionReportsRelabels) {
  Graph prev(4);
  prev.add_edge(0, 1);
  prev.add_edge(0, 2);
  prev.add_edge(0, 3);
  Graph next = prev;
  next.remove_edge(0, 2);
  std::vector<NodeId> changed;
  EXPECT_TRUE(next.changed_nodes_into(prev, changed, 4));
  // Node 0 lost an edge and node 3's edge moved from port 3 to port 2 at 0,
  // which relabels that surviving edge: node 3's list changes too, node 1's
  // does not.
  EXPECT_EQ(changed, (std::vector<NodeId>{0, 2, 3}));
}

TEST(GraphDelta, PortPermutationIsRelabelNotTopologyChange) {
  Graph prev(3);
  prev.add_edge(0, 1);
  prev.add_edge(0, 2);
  Graph next = prev;
  next.permute_ports(0, {1, 0});
  std::vector<NodeId> changed;
  EXPECT_TRUE(next.changed_nodes_into(prev, changed, 3));
  // Ports at 0 swapped: both neighbors' reverse ports change too.
  EXPECT_EQ(changed, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(next.edge_count(), prev.edge_count());
}

TEST(GraphDelta, ChangedNodesIntoClearsStaleContents) {
  const Graph prev = Graph::from_edges(4, {{0, 1}});
  Graph next = prev;
  next.add_edge(1, 2);
  std::vector<NodeId> changed = {9, 9, 9};  // stale contents must be cleared
  EXPECT_TRUE(next.changed_nodes_into(prev, changed, 4));
  EXPECT_EQ(changed, (std::vector<NodeId>{1, 2}));
}

TEST(GraphDelta, CapExceededReturnsFalse) {
  const Graph prev = Graph::from_edges(6, {{0, 1}, {1, 2}});
  Graph next = prev;
  next.add_edge(2, 3);
  next.add_edge(4, 5);  // changed nodes: 2, 3, 4, 5
  std::vector<NodeId> changed;
  EXPECT_FALSE(next.changed_nodes_into(prev, changed, 3));
  EXPECT_TRUE(next.changed_nodes_into(prev, changed, 4));
  EXPECT_EQ(changed, (std::vector<NodeId>{2, 3, 4, 5}));
}

}  // namespace
}  // namespace dyndisp
