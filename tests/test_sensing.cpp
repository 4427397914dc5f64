// Tests for packet assembly and robot views under the four model settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/builders.h"
#include "robots/configuration.h"
#include "robots/placement.h"
#include "sim/sensing.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

// Path 0-1-2-3-4; robots: {1,2}@0, {3}@1, {4}@3.
struct Fixture {
  Graph g = builders::path(5);
  Configuration conf{5, {0, 0, 1, 3}};
};

TEST(Packets, FromMultiplicityNode) {
  Fixture f;
  const InfoPacket pkt = make_packet(f.g, f.conf, 0, true);
  EXPECT_EQ(pkt.sender, 1u);
  EXPECT_EQ(pkt.count, 2u);
  EXPECT_EQ(pkt.robots, (std::vector<RobotId>{1, 2}));
  EXPECT_EQ(pkt.degree, 1u);
  ASSERT_EQ(pkt.occupied_neighbors.size(), 1u);
  EXPECT_EQ(pkt.occupied_neighbors[0].min_robot, 3u);
  EXPECT_EQ(pkt.occupied_neighbors[0].count, 1u);
  EXPECT_EQ(pkt.occupied_neighbors[0].port, f.g.port_to(0, 1));
}

TEST(Packets, MiddleNodeSeesBothSides) {
  Fixture f;
  const InfoPacket pkt = make_packet(f.g, f.conf, 1, true);
  EXPECT_EQ(pkt.sender, 3u);
  EXPECT_EQ(pkt.degree, 2u);
  ASSERT_EQ(pkt.occupied_neighbors.size(), 1u);  // node 2 is empty
  EXPECT_EQ(pkt.occupied_neighbors[0].min_robot, 1u);
}

TEST(Packets, NoNeighborhoodSuppressesNeighborInfo) {
  Fixture f;
  const InfoPacket pkt = make_packet(f.g, f.conf, 0, false);
  EXPECT_EQ(pkt.sender, 1u);
  EXPECT_TRUE(pkt.occupied_neighbors.empty());
  EXPECT_EQ(pkt.degree, 1u);
}

TEST(Packets, AllPacketsOnePerOccupiedNodeSortedBySender) {
  Fixture f;
  const auto packets = make_all_packets(f.g, f.conf, true);
  ASSERT_EQ(packets.size(), 3u);
  EXPECT_EQ(packets[0].sender, 1u);
  EXPECT_EQ(packets[1].sender, 3u);
  EXPECT_EQ(packets[2].sender, 4u);
}

TEST(Packets, DeadRobotsLeaveNoFootprint) {
  Fixture f;
  f.conf.kill(3);  // vacates node 1
  const auto packets = make_all_packets(f.g, f.conf, true);
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_EQ(packets[0].sender, 1u);
  EXPECT_EQ(packets[1].sender, 4u);
  // Node 0's packet no longer lists node 1 as occupied.
  EXPECT_TRUE(packets[0].occupied_neighbors.empty());
}

TEST(Views, GlobalWithNeighborhood) {
  Fixture f;
  const auto packets = make_all_packets(f.g, f.conf, true);
  const RobotView v =
      make_view(f.g, f.conf, 2, 7, CommModel::kGlobal, true, packets);
  EXPECT_EQ(v.self, 2u);
  EXPECT_EQ(v.round, 7u);
  EXPECT_EQ(v.k, 4u);
  EXPECT_EQ(v.degree, 1u);
  EXPECT_EQ(v.colocated, (std::vector<RobotId>{1, 2}));
  EXPECT_TRUE(v.global_comm);
  EXPECT_EQ(v.packets().size(), 3u);
  EXPECT_TRUE(v.neighborhood_knowledge);
  EXPECT_EQ(v.empty_neighbor_count, 0u);  // node 0's only neighbor occupied
}

TEST(Views, EmptyPortsListedAscending) {
  Fixture f;
  const RobotView v =
      make_view(f.g, f.conf, 4, 0, CommModel::kGlobal, true,
                make_all_packets(f.g, f.conf, true));
  // Node 3 neighbors: 2 (empty) and 4 (empty).
  EXPECT_EQ(v.empty_neighbor_count, 2u);
  ASSERT_EQ(v.empty_ports.size(), 2u);
  EXPECT_LT(v.empty_ports[0], v.empty_ports[1]);
  EXPECT_TRUE(v.occupied_neighbors.empty());
}

TEST(Views, LocalModelGetsNoPackets) {
  Fixture f;
  const RobotView v =
      make_view(f.g, f.conf, 3, 0, CommModel::kLocal, true, nullptr);
  EXPECT_FALSE(v.global_comm);
  EXPECT_TRUE(v.packets().empty());
  EXPECT_TRUE(v.neighborhood_knowledge);
  EXPECT_EQ(v.occupied_neighbors.size(), 1u);
}

TEST(Views, NoNeighborhoodHidesOccupancy) {
  Fixture f;
  const auto packets = make_all_packets(f.g, f.conf, false);
  const RobotView v =
      make_view(f.g, f.conf, 3, 0, CommModel::kGlobal, false, packets);
  EXPECT_FALSE(v.neighborhood_knowledge);
  EXPECT_TRUE(v.occupied_neighbors.empty());
  EXPECT_TRUE(v.empty_ports.empty());
  EXPECT_EQ(v.degree, 2u);  // own degree is observable (ports 1..deg exist)
}

TEST(Views, ColocatedStateReadsTheBorrowedStoreByColocatedId) {
  // Robots 1 and 2 share node 0; the store holds every robot's bytes, but
  // the view reaches only its co-located robots', in `colocated` order.
  Fixture f;
  const std::vector<std::vector<std::uint8_t>> store{{0x11}, {0x22, 0x23},
                                                     {0x33}, {0x44}};
  RobotView v = make_view(f.g, f.conf, 2, 0, CommModel::kLocal, false,
                          nullptr);
  v.borrow_states(&store);
  ASSERT_EQ(v.colocated, (std::vector<RobotId>{1, 2}));
  EXPECT_EQ(v.colocated_state(0), store[0]);
  EXPECT_EQ(v.colocated_state(1), store[1]);
}

// -- NodeIndex sender order and EmptyPortIndex against direct references.

/// Occupied nodes sorted by their smallest alive robot: the broadcast's
/// sender order, computed without the index.
std::vector<NodeId> senders_by_sort(const Configuration& conf) {
  std::vector<RobotId> smallest(conf.node_count(), kNoRobot);
  for (RobotId id = 1; id <= conf.robot_count(); ++id) {
    if (!conf.alive(id)) continue;
    RobotId& s = smallest[conf.position(id)];
    if (s == kNoRobot || id < s) s = id;
  }
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < conf.node_count(); ++v)
    if (smallest[v] != kNoRobot) nodes.push_back(v);
  std::sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
    return smallest[a] < smallest[b];
  });
  return nodes;
}

std::vector<NodeId> sender_list(const NodeIndex& index) {
  return {index.sender_nodes().begin(), index.sender_nodes().end()};
}

TEST(NodeIndexSenders, MatchSortBySmallestRobotOnRandomConfigurations) {
  Rng rng(41);
  NodeIndex index;  // one index across all cases: rebuilt in place
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.below(40);
    const std::size_t k = rng.below(n + 1);  // the model requires k <= n
    Configuration conf = placement::uniform_random(n, k, rng);
    if (trial % 2 == 1 && k > 0) {
      const std::size_t groups = 1 + rng.below(std::min({k, n, std::size_t{4}}));
      conf = placement::grouped(n, k, groups, rng);
    }
    for (RobotId id = 1; id <= k; ++id)
      if (rng.chance(0.2)) conf.kill(id);
    index.build(conf);
    ASSERT_EQ(sender_list(index), senders_by_sort(conf))
        << "trial " << trial << " n=" << n << " k=" << k;
    ASSERT_EQ(index.sender_nodes().size(), conf.occupied_count());
  }
}

TEST(NodeIndexSenders, DegenerateConfigurations) {
  NodeIndex index;
  index.build(Configuration(5, {}));  // k = 0
  EXPECT_TRUE(index.sender_nodes().empty());
  index.build(Configuration(1, {0}));  // n = 1
  EXPECT_EQ(sender_list(index), std::vector<NodeId>{0});
  index.build(placement::rooted(9, 6, 4));  // every robot on one node
  EXPECT_EQ(sender_list(index), std::vector<NodeId>{4});
  Configuration all_dead(4, {1, 2, 1});
  for (RobotId id = 1; id <= 3; ++id) all_dead.kill(id);
  index.build(all_dead);
  EXPECT_TRUE(index.sender_nodes().empty());
  // Robot 1 crashed: node 0's sender is now robot 4, so node 0 is last.
  Configuration crashed(4, {0, 1, 2, 0});
  crashed.kill(1);
  index.build(crashed);
  EXPECT_EQ(sender_list(index), (std::vector<NodeId>{1, 2, 0}));
}

TEST(EmptyPortIndex, MatchesAPerNodeScanOnRandomGraphs) {
  Rng rng(43);
  NodeIndex index;
  EmptyPortIndex empty;
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 2 + rng.below(60);
    const Graph g = builders::random_connected(n, rng.below(2 * n), rng);
    Configuration conf = placement::uniform_random(n, 1 + rng.below(n), rng);
    if (rng.chance(0.5)) conf.kill(1);
    index.build(conf);
    empty.build(g, index, nullptr);
    for (const NodeId v : index.sender_nodes()) {
      std::vector<Port> expected;
      for (Port p = 1; p <= g.degree(v); ++p)
        if (conf.count_at(g.neighbor(v, p)) == 0) expected.push_back(p);
      const std::span<const Port> got = empty.at(v);
      ASSERT_EQ(std::vector<Port>(got.begin(), got.end()), expected)
          << "trial " << trial << " node " << v;
    }
  }
}

}  // namespace
}  // namespace dyndisp
