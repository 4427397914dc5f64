#include "sim/byzantine.h"

#include <utility>

#include "util/contract.h"

namespace dyndisp {

ByzantineModel::ByzantineModel(std::set<RobotId> liars, ByzantineLie lie)
    : liars_(std::move(liars)), lie_(lie) {}

std::string ByzantineModel::lie_name() const {
  switch (lie_) {
    case ByzantineLie::kHideMultiplicity:
      return "hide-multiplicity";
    case ByzantineLie::kHideEmptyNeighbors:
      return "hide-empty-neighbors";
    case ByzantineLie::kErraticMoves:
      return "erratic-moves";
  }
  return "byzantine";
}

DYNDISP_COLD
void ByzantineModel::tamper(PacketArena& packets) const {
  if (lie_ == ByzantineLie::kErraticMoves) return;  // movement-only attack
  for (ArenaPacket& pkt : packets.headers) {
    if (!liars_.count(pkt.sender)) continue;
    switch (lie_) {
      case ByzantineLie::kHideMultiplicity:
        // "I am alone here." The sensed neighbor info in OTHER packets
        // stays truthful (sensing cannot be faked); Algorithm 4 only reads
        // counts from the packets, so the lie lands. pool[robots_begin] ==
        // sender already (lists ascend, sender is the minimum), so
        // truncating the range IS the {sender} singleton.
        pkt.count = 1;
        pkt.robots_count = 1;
        break;
      case ByzantineLie::kHideEmptyNeighbors:
        // "All my neighbors are occupied." LeafNodeSet membership is
        // degree > |occupied neighbors|, evaluated from the packet.
        pkt.degree = pkt.nb_count;
        break;
      case ByzantineLie::kErraticMoves:
        break;
    }
  }
}

Port ByzantineModel::override_move(RobotId id, Port planned,
                                   std::size_t degree, Round round) const {
  if (lie_ != ByzantineLie::kErraticMoves || !liars_.count(id) || degree == 0)
    return planned;
  const std::uint64_t h =
      (static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ULL) ^
      ((round + 1) * 0xD1B54A32D192ED03ULL);
  return static_cast<Port>(h % degree + 1);
}

}  // namespace dyndisp
