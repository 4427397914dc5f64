#include "sim/packet_arena.h"

#include "util/contract.h"

namespace dyndisp {

DYNDISP_COLD
PacketSet::PacketSet(const std::vector<InfoPacket>& packets) {
  // Same layout as the engine's assembly: each packet's pool slice holds
  // the sender's robots, then every neighbor's robots in list order.
  auto arena = std::make_shared<PacketArena>();
  arena->headers.reserve(packets.size());
  for (const InfoPacket& pkt : packets) {
    ArenaPacket h;
    h.sender = pkt.sender;
    h.count = static_cast<std::uint32_t>(pkt.count);
    h.degree = static_cast<std::uint32_t>(pkt.degree);
    h.robots_begin = static_cast<std::uint32_t>(arena->pool.size());
    h.robots_count = static_cast<std::uint32_t>(pkt.robots.size());
    arena->pool.insert(arena->pool.end(), pkt.robots.begin(), pkt.robots.end());
    h.nb_begin = static_cast<std::uint32_t>(arena->neighbors.size());
    h.nb_count = static_cast<std::uint32_t>(pkt.occupied_neighbors.size());
    for (const NeighborInfo& info : pkt.occupied_neighbors) {
      ArenaNeighbor nb;
      nb.port = info.port;
      nb.min_robot = info.min_robot;
      nb.count = static_cast<std::uint32_t>(info.count);
      nb.robots_begin = static_cast<std::uint32_t>(arena->pool.size());
      nb.robots_count = static_cast<std::uint32_t>(info.robots.size());
      arena->pool.insert(arena->pool.end(), info.robots.begin(),
                         info.robots.end());
      arena->neighbors.push_back(nb);
    }
    arena->headers.push_back(h);
  }
  arena_ = std::move(arena);
}

bool operator==(const NeighborView& a, const NeighborView& b) {
  if (a.port() != b.port() || a.min_robot() != b.min_robot() ||
      a.count() != b.count() || a.robot_count() != b.robot_count())
    return false;
  const RobotId* ra = a.robots();
  const RobotId* rb = b.robots();
  for (std::size_t i = 0, end = a.robot_count(); i < end; ++i)
    if (ra[i] != rb[i]) return false;
  return true;
}

bool operator==(const PacketView& a, const PacketView& b) {
  if (a.sender() != b.sender() || a.count() != b.count() ||
      a.degree() != b.degree() || a.robot_count() != b.robot_count() ||
      a.neighbor_count() != b.neighbor_count())
    return false;
  const RobotId* ra = a.robots();
  const RobotId* rb = b.robots();
  for (std::size_t i = 0, end = a.robot_count(); i < end; ++i)
    if (ra[i] != rb[i]) return false;
  for (std::size_t i = 0, end = a.neighbor_count(); i < end; ++i)
    if (!(a.neighbor(i) == b.neighbor(i))) return false;
  return true;
}

bool operator==(const PacketSet& a, const PacketSet& b) {
  if (a.identity() != nullptr && a.identity() == b.identity()) return true;
  const std::size_t size = a.size();
  if (size != b.size()) return false;
  for (std::size_t i = 0; i < size; ++i)
    if (!(a[i] == b[i])) return false;
  return true;
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix(std::uint64_t& h, std::uint64_t value) {
  h ^= value;
  h *= kFnvPrime;
}

}  // namespace

std::uint64_t packet_set_digest(const PacketSet& packets) {
  std::uint64_t h = kFnvOffset;
  mix(h, packets.size());
  for (std::size_t i = 0, size = packets.size(); i < size; ++i) {
    const PacketView pkt = packets[i];
    mix(h, pkt.sender());
    mix(h, pkt.count());
    mix(h, pkt.degree());
    for (std::size_t r = 0, end = pkt.robot_count(); r < end; ++r)
      mix(h, pkt.robot(r));
    mix(h, pkt.neighbor_count());
    for (std::size_t nb = 0, end = pkt.neighbor_count(); nb < end; ++nb) {
      const NeighborView v = pkt.neighbor(nb);
      mix(h, v.port());
      mix(h, v.min_robot());
      mix(h, v.count());
      for (std::size_t r = 0, rend = v.robot_count(); r < rend; ++r)
        mix(h, v.robot(r));
    }
  }
  return h;
}

}  // namespace dyndisp
