#include "sim/round_context.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "graph/fingerprint.h"
#include "util/parallel.h"

namespace dyndisp {

DYNDISP_HOT
void RoundContext::begin_round(const Configuration& conf) {
  const std::size_t n = conf.node_count();

  // Retire the finished round's broadcast into the delta-assembly source.
  prev_packets_ = std::move(packets_);
  packets_.reset();
  prev_packet_bits_each_.swap(packet_bits_each_);
  prev_packet_nodes_.swap(packet_nodes_);
  prev_packet_bits_ = packet_bits_;
  packet_bits_each_.clear();
  packet_nodes_.clear();
  packet_bits_ = 0;

  // Rebuild the node index into the retained CSR double buffer: a counting
  // sort into two flat arrays whose capacity persists across rounds, so
  // steady-state rounds allocate nothing here.
  std::swap(prev_index_, index_);
  index_.build(conf);
  conf_digest_ = 0;
  for (RobotId id = 1; id <= conf.robot_count(); ++id) {
    if (!conf.alive(id)) continue;
    conf_digest_ ^= fp_mix((static_cast<std::uint64_t>(id) << 32) |
                           conf.position(id));
  }

  // A node-count change (never happens mid-run under one adversary, but
  // contexts are reusable) voids the comparison basis and the retired
  // broadcast with it; without a previous broadcast every round takes the
  // full route, which reads no occupancy diff. The diff itself is taken by
  // publish_packets, and only on the routes that read it.
  if (first_round_ || prev_index_.node_count() != n) prev_packets_.reset();
  first_round_ = false;
}

std::shared_ptr<PacketArena> RoundContext::ArenaPool::acquire() {
  for (const std::shared_ptr<PacketArena>& a : buffers_) {
    if (a.use_count() == 1) {
      a->clear();
      return a;
    }
  }
  // All pooled buffers are pinned elsewhere (views, cache entries); a fresh
  // buffer joins the pool up to the cap, beyond which it lives and dies with
  // its broadcast.
  constexpr std::size_t kArenaPoolCap = 8;
  // NOLINTNEXTLINE-dyndisp(hotpath-alloc): pool-miss path only; a warmed-up
  // run cycles pooled buffers.
  auto fresh = std::make_shared<PacketArena>();
  if (buffers_.size() < kArenaPoolCap) buffers_.push_back(fresh);
  return fresh;
}

DYNDISP_HOT
void RoundContext::publish_packets(
    const Graph& g, const Configuration& conf, bool with_neighborhood,
    const ByzantineModel* byzantine, GraphChange change,
    const std::vector<NodeId>& changed_graph_nodes, ThreadPool* pool) {
  assert(!packets_ && "the round's broadcast is published exactly once");
  // A tampered broadcast keeps no ledger, so it is never a source.
  const bool can_source = byzantine == nullptr && prev_packets_ &&
                          prev_packet_nodes_.size() == prev_packets_.size();
  const bool same_graph = change == GraphChange::kSame;
  const bool can_delta =
      can_source && (same_graph || change == GraphChange::kSmallDelta);
  if (can_delta) {
    // Diff occupancy against the previous round: the reuse and delta
    // routes read it; the full route (churned graph, Byzantine model, no
    // previous broadcast) never pays for it. A previous broadcast implies
    // prev_index_ is last round's index over the same node count.
    changed_nodes_.clear();
    for (NodeId v = 0; v < conf.node_count(); ++v) {
      if (index_.count(v) != prev_index_.count(v) ||
          !std::equal(index_.begin(v), index_.end(v), prev_index_.begin(v)))
        changed_nodes_.push_back(v);
    }
  }
  if (can_delta && same_graph && changed_nodes_.empty()) {
    // Both broadcast inputs are unchanged: republish the previous round's
    // packets by handle, bits ledger and all.
    packets_ = prev_packets_;
    packet_bits_each_ = prev_packet_bits_each_;
    packet_nodes_ = prev_packet_nodes_;
    packet_bits_ = prev_packet_bits_;
    ++counters_.broadcasts_reused;
    return;
  }

  std::shared_ptr<PacketArena> arena = arena_pool_.acquire();
  if (can_delta) {
    // Delta route. A sender's packet reads its own adjacency, its own
    // robots, and the robots on each CURRENT neighbor, so the dirty closure
    // is: occupancy-changed nodes, their new-graph neighbors, and (when the
    // graph moved) every node whose adjacency changed. An old-graph-only
    // neighbor of v implies v's adjacency changed, so the union covers that
    // case too. Every other node with a previous packet copies it.
    const std::size_t n = conf.node_count();
    node_to_prev_.assign(n, -1);
    for (std::size_t i = 0; i < prev_packet_nodes_.size(); ++i)
      node_to_prev_[prev_packet_nodes_[i]] = static_cast<std::int32_t>(i);
    for (const NodeId v : changed_nodes_) {
      node_to_prev_[v] = -1;
      for (Port p = 1; p <= g.degree(v); ++p)
        node_to_prev_[g.neighbor(v, p)] = -1;
    }
    if (!same_graph) {
      for (const NodeId v : changed_graph_nodes) {
        assert(v < n);
        node_to_prev_[v] = -1;
      }
    }
    const PacketSource source{*prev_packets_.arena_handle(),
                              prev_packet_bits_each_, node_to_prev_};
    assemble_arena_metered(*arena, g, conf, with_neighborhood, index_,
                           &packet_bits_, pool, &packet_bits_each_,
                           &packet_nodes_, &source);
    for (const NodeId v : packet_nodes_) {
      if (node_to_prev_[v] >= 0)
        ++counters_.packets_copied;
      else
        ++counters_.packets_rebuilt;
    }
    ++counters_.broadcast_deltas;
  } else {
    assemble_arena_metered(*arena, g, conf, with_neighborhood, index_,
                           &packet_bits_, pool, &packet_bits_each_,
                           &packet_nodes_);
    if (byzantine) {
      byzantine->tamper(*arena);
      // Tampered packets no longer match their metered sizes; drop the
      // per-packet ledger so no later round sources from them.
      packet_bits_each_.clear();
      packet_nodes_.clear();
    }
  }
  packets_ = PacketSet::ArenaHandle(std::move(arena));
}

PacketSet RoundContext::assemble_candidate_packets(
    const Graph& g, const Configuration& conf, bool with_neighborhood,
    const ByzantineModel* byzantine, ThreadPool* pool) const {
  std::shared_ptr<PacketArena> arena = candidate_pool_.acquire();
  assemble_arena_metered(*arena, g, conf, with_neighborhood, index_, nullptr,
                         pool);
  if (byzantine) byzantine->tamper(*arena);
  return PacketSet::ArenaHandle(std::move(arena));
}

}  // namespace dyndisp
