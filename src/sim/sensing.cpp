#include "sim/sensing.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "util/bits.h"
#include "util/contract.h"
#include "util/parallel.h"

namespace dyndisp {

namespace {
std::atomic<std::size_t> g_packet_assemblies{0};

DYNDISP_COLD
InfoPacket make_packet_impl(const Graph& g, NodeId v, bool with_neighborhood,
                            const NodeIndex& index) {
  InfoPacket pkt;
  assert(!index.empty(v) && "packets originate from occupied nodes only");
  pkt.robots.assign(index.begin(v), index.end(v));
  pkt.sender = *index.begin(v);
  pkt.count = index.count(v);
  pkt.degree = g.degree(v);
  if (with_neighborhood) {
    // Count first so the list is allocated exactly once.
    std::size_t occupied = 0;
    for (Port p = 1; p <= g.degree(v); ++p)
      if (!index.empty(g.neighbor(v, p))) ++occupied;
    pkt.occupied_neighbors.reserve(occupied);
    for (Port p = 1; p <= g.degree(v); ++p) {
      const NodeId w = g.neighbor(v, p);
      if (index.empty(w)) continue;
      NeighborInfo info;
      info.port = p;
      info.min_robot = *index.begin(w);
      info.count = index.count(w);
      info.robots.assign(index.begin(w), index.end(w));
      pkt.occupied_neighbors.push_back(std::move(info));
    }
  }
  return pkt;
}

}  // namespace

std::size_t packet_assembly_count() {
  return g_packet_assemblies.load(std::memory_order_relaxed);
}

DYNDISP_HOT
void NodeIndex::build(const Configuration& conf) {
  const std::size_t n = conf.node_count();
  const std::size_t k = conf.robot_count();
  offsets_.assign(n + 1, 0);
  for (RobotId id = 1; id <= k; ++id)
    if (conf.alive(id)) ++offsets_[conf.position(id) + 1];
  for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  ids_.resize(offsets_[n]);
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (RobotId id = 1; id <= k; ++id)
    if (conf.alive(id)) ids_[cursor_[conf.position(id)]++] = id;
}

InfoPacket make_packet(const Graph& g, const Configuration& conf, NodeId v,
                       bool with_neighborhood) {
  NodeIndex index;
  index.build(conf);
  return make_packet_impl(g, v, with_neighborhood, index);
}

DYNDISP_COLD
std::vector<InfoPacket> make_all_packets(const Graph& g,
                                         const Configuration& conf,
                                         bool with_neighborhood) {
  g_packet_assemblies.fetch_add(1, std::memory_order_relaxed);
  NodeIndex index;
  index.build(conf);
  std::vector<InfoPacket> packets;
  packets.reserve(conf.occupied_count());
  for (NodeId v = 0; v < conf.node_count(); ++v)
    if (!index.empty(v))
      packets.push_back(make_packet_impl(g, v, with_neighborhood, index));
  // Node-ascending assembly, re-sorted by sender ID for a canonical order
  // that does not leak node identities. Senders are unique (one packet per
  // node over disjoint robot sets), so the order is deterministic.
  std::sort(packets.begin(), packets.end(),
            [](const InfoPacket& a, const InfoPacket& b) {
              return a.sender < b.sender;
            });
  return packets;
}

DYNDISP_HOT
void fill_view(RobotView& out, const Graph& g, const Configuration& conf,
               RobotId id, Round round, CommModel comm, bool neighborhood,
               const NodeIndex& index, const ViewNeeds& needs) {
  assert(conf.alive(id));
  const NodeId v = conf.position(id);

  out.self = id;
  out.round = round;
  out.k = conf.robot_count();
  out.degree = g.degree(v);
  out.node_count = conf.count_at(v);
  out.colocated.clear();
  if (needs.colocated) out.colocated.assign(index.begin(v), index.end(v));
  // Engine-owned fields: reset exactly as a fresh make_view result.
  out.arrival_port = kInvalidPort;
  out.borrow_states(nullptr);
  out.reuse = ReuseHints{};

  out.neighborhood_knowledge = neighborhood;
  out.empty_ports.clear();
  out.empty_neighbor_count = 0;
  std::size_t neighbors_filled = 0;
  if (neighborhood) {
    for (Port p = 1; p <= g.degree(v); ++p) {
      const NodeId w = g.neighbor(v, p);
      if (index.empty(w)) {
        ++out.empty_neighbor_count;
        // NOLINTNEXTLINE-dyndisp(hotpath-alloc): persistent view-arena slot
        // refilled in place; capacity is steady once warmed up.
        if (needs.empty_ports) out.empty_ports.push_back(p);
        continue;
      }
      if (!needs.occupied_neighbors) continue;
      // Reuse the slot (and its robots capacity) left from a prior fill.
      if (neighbors_filled == out.occupied_neighbors.size())
        // NOLINTNEXTLINE-dyndisp(hotpath-alloc): persistent view-arena slot
        // growth only while warming up; refilled in place afterwards.
        out.occupied_neighbors.emplace_back();
      NeighborInfo& info = out.occupied_neighbors[neighbors_filled++];
      info.port = p;
      info.min_robot = *index.begin(w);
      info.count = index.count(w);
      info.robots.assign(index.begin(w), index.end(w));
    }
  }
  if (out.occupied_neighbors.size() > neighbors_filled)
    out.occupied_neighbors.resize(neighbors_filled);

  out.global_comm = comm == CommModel::kGlobal;
}

std::size_t packet_bit_size(const PacketView& packet, std::size_t k,
                            std::size_t n) {
  const std::size_t id_bits = bit_width_for(k + 1);
  const std::size_t port_bits = bit_width_for(n);
  std::size_t bits = id_bits;                // sender
  bits += id_bits;                           // count
  bits += port_bits;                         // degree
  bits += packet.robot_count() * id_bits;    // co-located IDs
  for (std::size_t i = 0, end = packet.neighbor_count(); i < end; ++i) {
    const NeighborView nb = packet.neighbor(i);
    bits += port_bits;                       // port
    bits += id_bits;                         // min_robot
    bits += id_bits;                         // count
    bits += nb.robot_count() * id_bits;      // IDs on the neighbor
  }
  return bits;
}

DYNDISP_HOT
void assemble_arena_metered(PacketArena& arena, const Graph& g,
                            const Configuration& conf, bool with_neighborhood,
                            const NodeIndex& index, std::size_t* wire_bits,
                            ThreadPool* pool,
                            std::vector<std::size_t>* bits_each,
                            std::vector<NodeId>* nodes_each,
                            const PacketSource* source) {
  if (source == nullptr)
    g_packet_assemblies.fetch_add(1, std::memory_order_relaxed);
  const std::size_t n = conf.node_count();
  const std::size_t k = conf.robot_count();
  assert(source == nullptr || source->node_to_packet.size() == n);

  // The previous packet node `v`'s packet copies, or null when it is built.
  const auto copied = [source](NodeId v) -> const ArenaPacket* {
    if (source == nullptr || source->node_to_packet[v] < 0) return nullptr;
    return &source->arena.headers[static_cast<std::size_t>(
        source->node_to_packet[v])];
  };
  // A packet's pool slice is contiguous (sender robots, then each
  // neighbor's robots in port order), so its length is the distance from
  // its first robot to the end of its last neighbor's range.
  const auto slice_len = [source](const ArenaPacket& h) -> std::uint32_t {
    if (h.nb_count == 0) return h.robots_count;
    const ArenaNeighbor& last =
        source->arena.neighbors[h.nb_begin + h.nb_count - 1];
    return last.robots_begin + last.robots_count - h.robots_begin;
  };

  // Pass 1 (serial): one header per occupied node with every range
  // pre-assigned -- a copied packet's straight off its previous header, a
  // built one's off the CSR index and the graph: sender robots first, then
  // each occupied neighbor's robots, so a packet's pool slice is
  // contiguous. Node-ascending assignment keeps the layout deterministic
  // at any thread count.
  arena.headers.clear();
  std::uint32_t pool_cursor = 0;
  std::uint32_t nb_cursor = 0;
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t here = index.count(v);
    if (here == 0) continue;
    ArenaPacket h;
    if (const ArenaPacket* prev = copied(v)) {
      h = *prev;
      h.robots_begin = pool_cursor;
      pool_cursor += slice_len(*prev);
    } else {
      h.sender = *index.begin(v);
      h.count = static_cast<std::uint32_t>(here);
      h.degree = static_cast<std::uint32_t>(g.degree(v));
      h.robots_begin = pool_cursor;
      h.robots_count = h.count;
      pool_cursor += h.robots_count;
      h.nb_count = 0;
      if (with_neighborhood) {
        for (Port p = 1; p <= g.degree(v); ++p) {
          const std::size_t there = index.count(g.neighbor(v, p));
          if (there == 0) continue;
          ++h.nb_count;
          pool_cursor += static_cast<std::uint32_t>(there);
        }
      }
    }
    h.nb_begin = nb_cursor;
    nb_cursor += h.nb_count;
    // NOLINTNEXTLINE-dyndisp(hotpath-alloc): retained header table of a
    // pooled arena -- capacity is reached during warm-up, after which the
    // refill is in place (the zero-alloc memprobe test pins this).
    arena.headers.push_back(h);
  }
  arena.neighbors.resize(nb_cursor);
  arena.pool.resize(pool_cursor);

  // Canonical sender-ascending order, sorted in place: ranges are explicit,
  // so reordering headers never moves the pool, and the parallel fill below
  // is order-independent. Senders are unique (one packet per node over
  // disjoint robot sets), so the order is deterministic.
  std::sort(arena.headers.begin(), arena.headers.end(),
            [](const ArenaPacket& a, const ArenaPacket& b) {
              return a.sender < b.sender;
            });

  // Pass 2 (parallel): a copied packet takes its pool slice in one shot,
  // its neighbor entries with rebased ranges (every range in one slice
  // shifts by the same offset) and its metered bits; a built packet fills
  // its slices and is metered. The sender's node is recovered from its
  // smallest robot's position, so no node scratch list is needed.
  const bool meter = wire_bits != nullptr || bits_each != nullptr;
  if (bits_each) bits_each->resize(arena.headers.size());
  if (nodes_each) nodes_each->resize(arena.headers.size());
  std::vector<std::size_t> local_bits(
      meter && bits_each == nullptr ? arena.headers.size() : 0);
  std::vector<std::size_t>* bits = bits_each ? bits_each : &local_bits;
  parallel_for(pool, arena.headers.size(), [&](std::size_t i) {
    const ArenaPacket& h = arena.headers[i];
    const NodeId v = conf.position(h.sender);
    if (nodes_each) (*nodes_each)[i] = v;
    if (const ArenaPacket* prev = copied(v)) {
      const PacketArena& from = source->arena;
      std::copy(from.pool.begin() + prev->robots_begin,
                from.pool.begin() + prev->robots_begin + slice_len(*prev),
                arena.pool.begin() + h.robots_begin);
      const std::uint32_t shift = h.robots_begin - prev->robots_begin;
      for (std::uint32_t e = 0; e < prev->nb_count; ++e) {
        ArenaNeighbor nb = from.neighbors[prev->nb_begin + e];
        nb.robots_begin += shift;  // uint32 wraparound-safe: exact inverse
        arena.neighbors[h.nb_begin + e] = nb;
      }
      if (meter)
        (*bits)[i] = source->bits_each[static_cast<std::size_t>(
            source->node_to_packet[v])];
      return;
    }
    std::copy(index.begin(v), index.end(v),
              arena.pool.begin() + h.robots_begin);
    std::uint32_t cursor = h.robots_begin + h.robots_count;
    std::uint32_t filled = 0;
    if (h.nb_count > 0) {
      for (Port p = 1; p <= g.degree(v); ++p) {
        const NodeId w = g.neighbor(v, p);
        if (index.empty(w)) continue;
        ArenaNeighbor& nb = arena.neighbors[h.nb_begin + filled++];
        nb.port = p;
        nb.min_robot = *index.begin(w);
        nb.count = static_cast<std::uint32_t>(index.count(w));
        nb.robots_begin = cursor;
        nb.robots_count = nb.count;
        std::copy(index.begin(w), index.end(w),
                  arena.pool.begin() + cursor);
        cursor += nb.count;
      }
    }
    if (meter) (*bits)[i] = packet_bit_size(PacketView(arena, i), k, n);
  });
  if (wire_bits) {
    std::size_t total = 0;
    for (const std::size_t b : *bits) total += b;
    *wire_bits = total;
  }
}

RobotView make_view(const Graph& g, const Configuration& conf, RobotId id,
                    Round round, CommModel comm, bool neighborhood,
                    PacketSet packets) {
  NodeIndex index;
  index.build(conf);
  RobotView view;
  fill_view(view, g, conf, id, round, comm, neighborhood, index, ViewNeeds{});
  if (view.global_comm) view.own_packets = std::move(packets);
  return view;
}

}  // namespace dyndisp
