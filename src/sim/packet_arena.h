// Flat CSR storage for the per-round packet broadcast, plus the view types
// every consumer reads packets through.
//
// At k = 10^5 the per-round broadcast held ~12M heap allocations per run:
// every InfoPacket owns a `robots` vector and one more per occupied
// neighbor. PacketArena replaces all of them with three flat arrays -- a
// header table, a neighbor-entry table, and a single RobotId pool -- that
// persist across rounds and are refilled in place. The wire format is an
// observable (its bit metering feeds the Lemma-8/Theorem-4/5 oracles), so
// the arena never changes what a packet SAYS, only where its bytes live:
// PacketView/NeighborView present exactly the fields of the InfoPacket
// record, and PacketSet lets the engine, planner, and caches hold "this
// round's broadcast" by reference-counted handle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/info_packet.h"
#include "util/types.h"

namespace dyndisp {

/// One occupied neighbor inside a flat packet: NeighborInfo with the robot
/// list replaced by a range into the arena's shared pool.
struct ArenaNeighbor {
  Port port = kInvalidPort;
  RobotId min_robot = kNoRobot;
  std::uint32_t count = 0;         ///< Robots on the neighbor (multiplicity).
  std::uint32_t robots_begin = 0;  ///< Range into PacketArena::pool.
  std::uint32_t robots_count = 0;
};

/// One flat packet: InfoPacket with both payload vectors replaced by ranges
/// into the arena's shared tables.
struct ArenaPacket {
  RobotId sender = kNoRobot;
  std::uint32_t count = 0;         ///< Robots on the sender's node.
  std::uint32_t degree = 0;        ///< Degree of the node in G_r.
  std::uint32_t robots_begin = 0;  ///< Range into PacketArena::pool.
  std::uint32_t robots_count = 0;
  std::uint32_t nb_begin = 0;      ///< Range into PacketArena::neighbors.
  std::uint32_t nb_count = 0;
};

/// The whole round's broadcast in three flat arrays. Headers are in sender
/// order; each packet's pool slice is contiguous (sender robots first, then
/// each neighbor's robots in port order), so a delta rebuild can copy a
/// clean packet with one pool memcpy. Ranges are explicit, so a reader never
/// infers a range from the header order.
struct PacketArena {
  std::vector<ArenaPacket> headers;
  std::vector<ArenaNeighbor> neighbors;
  std::vector<RobotId> pool;
};

/// Read-only view of one occupied-neighbor record inside an arena.
class NeighborView {
 public:
  NeighborView() = default;
  NeighborView(const PacketArena& arena, const ArenaNeighbor& entry)
      : arena_(&arena), entry_(&entry) {}

  [[nodiscard]] Port port() const { return entry_->port; }
  [[nodiscard]] RobotId min_robot() const { return entry_->min_robot; }
  [[nodiscard]] std::size_t count() const { return entry_->count; }
  [[nodiscard]] std::size_t robot_count() const { return entry_->robots_count; }
  /// Contiguous slice of the arena's pool.
  [[nodiscard]] const RobotId* robots() const {
    return arena_->pool.data() + entry_->robots_begin;
  }
  [[nodiscard]] RobotId robot(std::size_t i) const { return robots()[i]; }

  /// Deep field-wise equality.
  friend bool operator==(const NeighborView& a, const NeighborView& b);

 private:
  const PacketArena* arena_ = nullptr;
  const ArenaNeighbor* entry_ = nullptr;
};

/// Read-only view of one packet inside an arena. Copyable and cheap; it
/// exposes every field of the InfoPacket record it stores.
class PacketView {
 public:
  PacketView() = default;
  PacketView(const PacketArena& arena, std::size_t index)
      : arena_(&arena), header_(&arena.headers[index]) {}

  [[nodiscard]] RobotId sender() const { return header_->sender; }
  [[nodiscard]] std::size_t count() const { return header_->count; }
  [[nodiscard]] std::size_t degree() const { return header_->degree; }
  [[nodiscard]] std::size_t robot_count() const {
    return header_->robots_count;
  }
  /// Contiguous slice of the arena's pool.
  [[nodiscard]] const RobotId* robots() const {
    return arena_->pool.data() + header_->robots_begin;
  }
  [[nodiscard]] RobotId robot(std::size_t i) const { return robots()[i]; }
  [[nodiscard]] std::size_t neighbor_count() const { return header_->nb_count; }
  [[nodiscard]] NeighborView neighbor(std::size_t i) const {
    return NeighborView(*arena_, arena_->neighbors[header_->nb_begin + i]);
  }

  /// Deep record equality (used by the plan cache key check and the
  /// structure cache's sender-wise delta walk).
  friend bool operator==(const PacketView& a, const PacketView& b);

 private:
  const PacketArena* arena_ = nullptr;
  const ArenaPacket* header_ = nullptr;
};

/// One round's broadcast: an owning handle on an immutable arena, so caches
/// can keep it alive across rounds. A default-constructed (or nullptr) set
/// is "no packets" -- the local-communication case -- and is falsy.
class PacketSet {
 public:
  using ArenaHandle = std::shared_ptr<const PacketArena>;

  PacketSet() = default;
  PacketSet(std::nullptr_t) {}  // NOLINT: nullptr means "no packets"
  PacketSet(ArenaHandle arena) : arena_(std::move(arena)) {}  // NOLINT
  /// Packs hand-built records, in their given order, into a fresh owned
  /// arena. Implicit so tests and one-shot callers can pass a plain
  /// vector wherever a set is taken; the engine never goes through it.
  PacketSet(const std::vector<InfoPacket>& packets);  // NOLINT

  [[nodiscard]] std::size_t size() const {
    return arena_ ? arena_->headers.size() : 0;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  explicit operator bool() const { return arena_ != nullptr; }
  [[nodiscard]] PacketView operator[](std::size_t i) const {
    return PacketView(*arena_, i);
  }

  [[nodiscard]] const ArenaHandle& arena_handle() const { return arena_; }

  /// Storage identity: equal pointers => the identical broadcast (the
  /// republish fast path); distinct pointers say nothing.
  [[nodiscard]] const void* identity() const { return arena_.get(); }

  void reset() { arena_.reset(); }

  /// Deep record-sequence equality; identity fast path.
  friend bool operator==(const PacketSet& a, const PacketSet& b);

 private:
  ArenaHandle arena_;
};

/// Order-sensitive FNV-1a digest of every field of every packet; the golden
/// packet-trace fixtures pin it per round.
[[nodiscard]] std::uint64_t packet_set_digest(const PacketSet& packets);

}  // namespace dyndisp
