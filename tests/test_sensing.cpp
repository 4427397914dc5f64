// Tests for packet assembly and robot views under the four model settings.
#include <gtest/gtest.h>

#include "graph/builders.h"
#include "robots/configuration.h"
#include "sim/sensing.h"

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

}  // namespace
}  // namespace dyndisp
