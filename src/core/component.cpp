#include "core/component.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace dyndisp::core {

const ComponentNode* ComponentGraph::find(RobotId name) const {
  const auto it = std::lower_bound(
      nodes_.begin(), nodes_.end(), name,
      [](const ComponentNode& n, RobotId x) { return n.name < x; });
  return (it != nodes_.end() && it->name == name) ? &*it : nullptr;
}

std::size_t ComponentGraph::robot_count() const {
  std::size_t total = 0;
  for (const ComponentNode& n : nodes_) total += n.count;
  return total;
}

bool ComponentGraph::has_multiplicity() const {
  return std::any_of(nodes_.begin(), nodes_.end(),
                     [](const ComponentNode& n) { return n.count > 1; });
}

RobotId ComponentGraph::root_name() const {
  for (const ComponentNode& n : nodes_)  // ascending by name
    if (n.count > 1) return n.name;
  return kNoRobot;
}

void ComponentGraph::clear() {
  nodes_.clear();
  robots_.clear();
  edges_.clear();
  targets_.clear();
}

void ComponentGraph::reserve(std::size_t nodes, std::size_t robots,
                             std::size_t edges) {
  nodes_.reserve(nodes);
  robots_.reserve(robots);
  edges_.reserve(edges);
  targets_.reserve(edges);
}

// The sender index replaces the seed's per-component std::map (which made
// one round's component construction O(components * packets * log)), and
// its direct-lookup rank table replaces the per-edge binary search of the
// first flat version: component BFS touches every directed edge of the
// occupied subgraph, and at k >= 10^5 those lower_bound probes dominated
// Algorithm 1.
void ComponentBuilder::reset(const PacketSet& packets) {
  packets_ = &packets;
  cursor_ = 0;
  trivial_.clear();
  entries_.clear();
  // Every per-set buffer is sized for the whole set up front, so a builder
  // that has indexed a set at least as large never grows again.
  const std::size_t senders = packets.size();
  entries_.reserve(senders);
  frontier_.reserve(senders);
  members_.reserve(senders);
  trivial_.reserve(senders);
  RobotId max_sender = 0, max_robot = 0;
  for (std::size_t i = 0; i < senders; ++i) {
    const PacketView pkt = packets[i];
    entries_.emplace_back(pkt.sender(), pkt);
    max_sender = std::max(max_sender, pkt.sender());
    if (pkt.robot_count() > 0)  // robots ascend: the last is the largest
      max_robot = std::max(max_robot, pkt.robot(pkt.robot_count() - 1));
  }
  // Senders are robots: the largest robot bounds every set's rank table.
  rank_of_.reserve(
      static_cast<std::size_t>(std::max(max_sender, max_robot)) + 1);
  const auto by_sender = [](const std::pair<RobotId, PacketView>& a,
                            const std::pair<RobotId, PacketView>& b) {
    return a.first < b.first;
  };
  if (!std::is_sorted(entries_.begin(), entries_.end(), by_sender))
    std::sort(entries_.begin(), entries_.end(), by_sender);
  rank_of_.assign(
      packets.empty() ? 0 : static_cast<std::size_t>(max_sender) + 1,
      kMissing);
  // First occurrence wins, matching lower_bound on (degenerate, hand-built)
  // sets with duplicate senders.
  for (std::size_t r = 0; r < entries_.size(); ++r) {
    std::uint32_t& slot = rank_of_[entries_[r].first];
    if (slot == kMissing) slot = static_cast<std::uint32_t>(r);
  }
  visited_.assign(entries_.size(), 0);
  local_of_.assign(entries_.size(), ComponentGraph::kMissingTarget);
}

std::size_t ComponentBuilder::rank(RobotId name) const {
  if (name >= rank_of_.size() || rank_of_[name] == kMissing) return kNoRank;
  return rank_of_[name];
}

RobotId ComponentBuilder::next_seed(bool split_trivial) {
  for (const std::size_t size = packets_->size(); cursor_ < size; ++cursor_) {
    const PacketView pkt = (*packets_)[cursor_];
    const std::size_t r = rank(pkt.sender());
    assert(r != kNoRank);
    if (visited_[r]) continue;
    if (split_trivial && pkt.count() == 1 && pkt.neighbor_count() == 0) {
      visited_[r] = 1;
      trivial_.push_back(pkt.sender());
      continue;
    }
    return pkt.sender();
  }
  return kNoRobot;
}

void ComponentBuilder::build_into(RobotId start_name, ComponentGraph& out) {
  const std::size_t start = rank(start_name);
  assert(start != kNoRank && "start node must have a packet");

  // Phase 1 -- membership: flood-fill over the packets' neighbor references.
  // Traversal order cannot affect the result (the component is the
  // reachability closure, and nodes are emitted name-ascending below), so a
  // plain stack replaces any ordered frontier.
  //
  // Under the paper's model every referenced neighbor has a packet; a
  // reference without one can only come from a lying (Byzantine) packet, in
  // which case the phantom node is skipped -- the honest part of the
  // component is still built deterministically by every robot.
  assert(frontier_.empty());
  members_.clear();
  visited_[start] = 1;
  frontier_.push_back(static_cast<std::uint32_t>(start));
  members_.push_back(static_cast<std::uint32_t>(start));
  while (!frontier_.empty()) {
    const std::size_t r_at = frontier_.back();
    frontier_.pop_back();
    const PacketView pkt = entries_[r_at].second;
    for (std::size_t i = 0, end = pkt.neighbor_count(); i < end; ++i) {
      const std::size_t r = rank(pkt.neighbor(i).min_robot());
      if (r == kNoRank || visited_[r]) continue;
      visited_[r] = 1;
      frontier_.push_back(static_cast<std::uint32_t>(r));
      members_.push_back(static_cast<std::uint32_t>(r));
    }
  }

  // Phase 2 -- materialization, name-ascending (ranks ascend with names, so
  // sorting the collected ranks IS the canonical node order), resolving every
  // edge target to its dense in-component index as it is emitted.
  std::sort(members_.begin(), members_.end());
  for (std::size_t i = 0; i < members_.size(); ++i)
    local_of_[members_[i]] = static_cast<std::uint32_t>(i);

  out.clear();
  for (const std::uint32_t r_at : members_) {
    const PacketView pkt = entries_[r_at].second;
    ComponentNode node;
    node.name = pkt.sender();
    node.count = pkt.count();
    node.degree = pkt.degree();
    node.robots_begin = static_cast<std::uint32_t>(out.robots_.size());
    out.robots_.insert(out.robots_.end(), pkt.robots(),
                       pkt.robots() + pkt.robot_count());
    node.robots_end = static_cast<std::uint32_t>(out.robots_.size());
    node.edges_begin = static_cast<std::uint32_t>(out.edges_.size());
    for (std::size_t i = 0, end = pkt.neighbor_count(); i < end; ++i) {
      const NeighborView nb = pkt.neighbor(i);
      const std::size_t r = rank(nb.min_robot());
      if (r == kNoRank) continue;  // phantom neighbor: edge dropped
      out.edges_.emplace_back(nb.port(), nb.min_robot());
      out.targets_.push_back(local_of_[r]);
    }
    node.edges_end = static_cast<std::uint32_t>(out.edges_.size());
    // Packets list neighbors port-ascending already; keep the invariant in
    // case a caller hand-builds packets (permuting targets alongside).
    const auto edges = out.edges_.begin() + node.edges_begin;
    const auto targets = out.targets_.begin() + node.edges_begin;
    const std::size_t count = node.edge_count();
    if (!std::is_sorted(edges, edges + count)) {
      unsorted_.clear();
      for (std::size_t e = 0; e < count; ++e)
        unsorted_.emplace_back(edges[e], targets[e]);
      // Equal edges name the same neighbor, hence the same target: the
      // order among ties cannot show.
      std::sort(unsorted_.begin(), unsorted_.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (std::size_t e = 0; e < count; ++e) {
        edges[e] = unsorted_[e].first;
        targets[e] = unsorted_[e].second;
      }
    }
    out.nodes_.push_back(node);
  }
  // A neighbor absorbed by an earlier component is not a member; only a
  // hand-built, one-sided edge list names one. Restoring the sentinel keeps
  // such an edge's target kMissingTarget instead of a stale index.
  for (const std::uint32_t r_at : members_)
    local_of_[r_at] = ComponentGraph::kMissingTarget;
}

ComponentGraph build_component(const PacketSet& packets, RobotId start_name) {
  ComponentGraph cg;
  ComponentBuilder(packets).build_into(start_name, cg);
  return cg;
}

std::vector<ComponentGraph> build_all_components(const PacketSet& packets) {
  ComponentBuilder builder(packets);
  std::vector<ComponentGraph> components;
  for (RobotId seed; (seed = builder.next_seed(false)) != kNoRobot;)
    builder.build_into(seed, components.emplace_back());
  return components;
}

}  // namespace dyndisp::core
