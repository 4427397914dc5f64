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

// The wire cost model: a packet header (sender, count, degree), a neighbor
// entry (port, min_robot, count) and a listed robot ID each cost a fixed
// number of bits, so any set of packets costs a linear function of how many
// of each it holds.
std::size_t wire_bit_size(std::size_t headers, std::size_t neighbors,
                          std::size_t ids, std::size_t k, std::size_t n) {
  const std::size_t id_bits = bit_width_for(k + 1);
  const std::size_t port_bits = bit_width_for(n);
  return headers * (2 * id_bits + port_bits) +
         neighbors * (port_bits + 2 * id_bits) + ids * id_bits;
}

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
  std::size_t occupied = 0;
  for (std::size_t v = 0; v < n; ++v) {
    occupied += offsets_[v + 1] != 0;
    offsets_[v + 1] += offsets_[v];
  }
  ids_.resize(offsets_[n]);
  senders_.resize(occupied);
  // Each cursor starts with a fresh-node bit, cleared by the node's first
  // (smallest) robot, which thereby records the node as the next sender.
  // Testing the cursor itself keeps the placement at one random read per
  // robot; comparing the cursor with offsets_ read a second array.
  constexpr std::uint32_t kFresh = std::uint32_t{1} << 31;
  assert(offsets_[n] < kFresh);
  cursor_.resize(n);
  for (std::size_t v = 0; v < n; ++v) cursor_[v] = offsets_[v] | kFresh;
  std::size_t next_sender = 0;
  for (RobotId id = 1; id <= k; ++id) {
    if (!conf.alive(id)) continue;
    const NodeId v = conf.position(id);
    std::uint32_t slot = cursor_[v];
    if (slot & kFresh) {
      senders_[next_sender++] = v;
      slot &= ~kFresh;
    }
    ids_[slot] = id;
    cursor_[v] = slot + 1;
  }
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
void EmptyPortIndex::build(const Graph& g, const NodeIndex& index,
                           ThreadPool* pool) {
  const std::span<const NodeId> occupied = index.sender_nodes();
  ranges_.resize(g.node_count());
  // A degree-sized block per occupied node bounds its list, so the blocks
  // are laid out before any scan and the scans need no second pass.
  std::uint32_t cursor = 0;
  for (const NodeId v : occupied) {
    ranges_[v].begin = cursor;
    cursor += static_cast<std::uint32_t>(g.degree(v));
  }
  ports_.resize(cursor);
  parallel_for(pool, occupied.size(), [&](std::size_t i) {
    const NodeId v = occupied[i];
    Range& range = ranges_[v];
    Port* out = ports_.data() + range.begin;
    std::uint32_t count = 0;
    for (Port p = 1; p <= g.degree(v); ++p)
      if (index.empty(g.neighbor(v, p))) out[count++] = p;
    range.count = count;
  });
}

DYNDISP_HOT
void fill_view(RobotView& out, const Graph& g, const Configuration& conf,
               RobotId id, Round round, CommModel comm, bool neighborhood,
               const NodeIndex& index, const EmptyPortIndex& empty,
               const ViewNeeds& needs) {
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
  out.empty_ports = {};
  out.empty_neighbor_count = 0;
  std::size_t neighbors_filled = 0;
  if (neighborhood) {
    const std::span<const Port> empty_here = empty.at(v);
    out.empty_neighbor_count = empty_here.size();
    if (needs.empty_ports) out.empty_ports = empty_here;
    if (needs.occupied_neighbors) {
      for (Port p = 1; p <= g.degree(v); ++p) {
        const NodeId w = g.neighbor(v, p);
        if (index.empty(w)) continue;
        // Reuse the slot (and its robots capacity) left from a prior fill.
        if (neighbors_filled == out.occupied_neighbors.size())
          // NOLINTNEXTLINE-dyndisp(hotpath-alloc): persistent view-arena
          // slot growth only while warming up; refilled in place afterwards.
          out.occupied_neighbors.emplace_back();
        NeighborInfo& info = out.occupied_neighbors[neighbors_filled++];
        info.port = p;
        info.min_robot = *index.begin(w);
        info.count = index.count(w);
        info.robots.assign(index.begin(w), index.end(w));
      }
    }
  }
  if (out.occupied_neighbors.size() > neighbors_filled)
    out.occupied_neighbors.resize(neighbors_filled);

  out.global_comm = comm == CommModel::kGlobal;
}

std::size_t packet_bit_size(const PacketView& packet, std::size_t k,
                            std::size_t n) {
  std::size_t ids = packet.robot_count();
  for (std::size_t i = 0, end = packet.neighbor_count(); i < end; ++i)
    ids += packet.neighbor(i).robot_count();
  return wire_bit_size(1, packet.neighbor_count(), ids, k, n);
}

DYNDISP_HOT
void assemble_arena_metered(PacketArena& arena, const Graph& g,
                            const Configuration& conf, bool with_neighborhood,
                            const NodeIndex& index, std::size_t* wire_bits,
                            ThreadPool* pool) {
  g_packet_assemblies.fetch_add(1, std::memory_order_relaxed);

  // Pass 1 (serial): one header per occupied node, in sender order, with
  // every range pre-assigned off the CSR index and the graph: sender robots
  // first, then each occupied neighbor's robots, so a packet's pool slice
  // is contiguous. The index lists nodes by their smallest robot, so the
  // headers come out in the canonical sender-ascending order with no sort,
  // and the layout is deterministic at any thread count.
  const std::span<const NodeId> senders = index.sender_nodes();
  arena.headers.resize(senders.size());
  std::uint32_t pool_cursor = 0;
  std::uint32_t nb_cursor = 0;
  for (std::size_t i = 0; i < senders.size(); ++i) {
    const NodeId v = senders[i];
    ArenaPacket& h = arena.headers[i];
    const std::size_t here = index.count(v);
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
    h.nb_begin = nb_cursor;
    nb_cursor += h.nb_count;
  }
  arena.neighbors.resize(nb_cursor);
  arena.pool.resize(pool_cursor);

  // Pass 2 (parallel): each packet fills its own pre-assigned slices.
  parallel_for(pool, arena.headers.size(), [&](std::size_t i) {
    const ArenaPacket& h = arena.headers[i];
    const NodeId v = senders[i];
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
  });

  // Every header, neighbor entry and pooled ID belongs to exactly one
  // packet, so the broadcast's size is the cost model over the three array
  // lengths: the sum of packet_bit_size over its packets, with no
  // per-packet pass.
  if (wire_bits)
    *wire_bits = wire_bit_size(arena.headers.size(), arena.neighbors.size(),
                               arena.pool.size(), conf.robot_count(),
                               conf.node_count());
}

RobotView make_view(const Graph& g, const Configuration& conf, RobotId id,
                    Round round, CommModel comm, bool neighborhood,
                    PacketSet packets) {
  NodeIndex index;
  index.build(conf);
  EmptyPortIndex empty;
  if (neighborhood) empty.build(g, index, nullptr);
  RobotView view;
  fill_view(view, g, conf, id, round, comm, neighborhood, index, empty,
            ViewNeeds{});
  view.own_empty_ports.assign(view.empty_ports.begin(),
                              view.empty_ports.end());
  view.empty_ports = view.own_empty_ports;
  if (view.global_comm) view.own_packets = std::move(packets);
  return view;
}

}  // namespace dyndisp
