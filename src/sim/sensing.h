// Sensing: assembles exactly what the model lets each robot observe.
//
// The combination of the two switches reproduces the paper's four model
// rows (Table I):
//   * CommModel::Local  + neighborhood  -> Theorem 1 setting (impossible)
//   * CommModel::Global + !neighborhood -> Theorem 2 setting (impossible)
//   * CommModel::Global + neighborhood  -> Algorithm 4 setting (Theta(k))
//
// The round's shared artifacts are borrowed, never copied, into a view: the
// engine's views point at the round's one packet broadcast and at its one
// per-robot store of start-of-round states, and both outlive the steps.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "robots/configuration.h"
#include "sim/info_packet.h"
#include "sim/packet_arena.h"
#include "sim/reuse_hints.h"
#include "util/types.h"

namespace dyndisp {

class ThreadPool;

enum class CommModel {
  kLocal,   ///< A robot talks only to robots on its own node.
  kGlobal,  ///< A robot talks to every robot in the graph.
};

/// Everything one robot observes in the Communicate phase of one round.
struct RobotView {
  RobotId self = kNoRobot;
  Round round = 0;
  std::size_t k = 0;              ///< Total number of robots (IDs in [1,k]).
  std::size_t degree = 0;         ///< Degree of the robot's node in G_r.
  std::size_t node_count = 0;     ///< Robots on the robot's node.
  std::vector<RobotId> colocated; ///< Alive robots here (incl. self), ascending.
  /// Port of the CURRENT node through which this robot entered when it last
  /// moved (Section II: "it is aware of ... the port of v it used to enter
  /// v"); kInvalidPort if the robot has not moved yet or stayed last round.
  /// Meaningful for static-graph algorithms; on dynamic graphs the edge may
  /// no longer exist.
  Port arrival_port = kInvalidPort;
  /// The serialized persistent state of the i-th co-located robot
  /// (`colocated[i]`), as at the START of the round. Local communication
  /// lets same-node robots exchange arbitrary state; the DFS baselines read
  /// the settled robot's parent/rotor through this. The bytes live in the
  /// engine's per-robot store, which the view borrows for the step (see
  /// borrow_states); this accessor is the only way to reach them, so a
  /// robot sees the states of its co-located robots and no others.
  const std::vector<std::uint8_t>& colocated_state(std::size_t i) const {
    assert(states_ != nullptr && "no exchanged states attached to this view");
    assert(i < colocated.size());
    return (*states_)[colocated[i] - 1];
  }

  /// Attaches (or, with null, detaches) the engine's store of every robot's
  /// start-of-round serialized state, id-1 indexed. The store must outlive
  /// every colocated_state call; bare make_view results attach none.
  void borrow_states(const std::vector<std::vector<std::uint8_t>>* states) {
    states_ = states;
  }

  bool neighborhood_knowledge = false;
  /// Occupied neighbors of the robot's own node, port-ascending.
  /// Populated only when neighborhood_knowledge is true.
  std::vector<NeighborInfo> occupied_neighbors;
  /// Number of empty (unoccupied) neighbors of the robot's own node.
  /// Populated only when neighborhood_knowledge is true.
  std::size_t empty_neighbor_count = 0;
  /// Ports of the robot's node leading to empty neighbors, ascending.
  std::vector<Port> empty_ports;

  bool global_comm = false;
  /// All packets in the system, ascending by sender ID (one per occupied
  /// node); non-empty only when global_comm is true. k robots receive the
  /// same broadcast, so the engine's views borrow the round's one set,
  /// which it keeps alive through the compute phase: no per-robot copy
  /// (every round would be Theta(k^2) in packet volume) and no per-robot
  /// reference-count traffic on the set. Null in make_view results, which
  /// own their set in own_packets. Read through packets().
  const PacketSet* shared_packets = nullptr;
  PacketSet own_packets;

  /// Cross-round reuse hints for the shared packet set (filled by the
  /// engine, like arrival_port; invalid in bare make_view results). Caching
  /// algorithm layers key cross-round structure reuse on these; the default
  /// invalid hints always take the uncached path.
  ReuseHints reuse;

  /// The packet set (empty when local communication is in effect), read
  /// through the PacketView API over the round's PacketArena.
  const PacketSet& packets() const {
    return shared_packets != nullptr ? *shared_packets : own_packets;
  }

 private:
  const std::vector<std::vector<std::uint8_t>>* states_ = nullptr;
};

/// Node -> alive robot IDs there, ascending, as a CSR (compressed sparse
/// row) index: all robot IDs in one contiguous array, per-node segments
/// addressed by an offsets table. Building it once turns the O(k)
/// Configuration::robots_at scans inside packet/view assembly into O(1)
/// lookups; rebuilt in place by a counting sort, it is allocation-free in
/// steady state. The engine's round loop keeps one in its RoundContext;
/// one-shot callers build their own.
class NodeIndex {
 public:
  /// Rebuilds the index for `conf` (counting sort over alive robots; robot
  /// IDs ascend within each node's segment). Reuses retained buffers.
  void build(const Configuration& conf);

  std::size_t node_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Alive robots on node v, ascending: [begin(v), end(v)).
  const RobotId* begin(NodeId v) const { return ids_.data() + offsets_[v]; }
  const RobotId* end(NodeId v) const { return ids_.data() + offsets_[v + 1]; }
  std::size_t count(NodeId v) const { return offsets_[v + 1] - offsets_[v]; }
  bool empty(NodeId v) const { return count(v) == 0; }
  /// Total alive robots indexed.
  std::size_t total() const { return ids_.size(); }

 private:
  std::vector<std::uint32_t> offsets_;  // n + 1
  std::vector<RobotId> ids_;            // all alive robots, node-major
  std::vector<std::uint32_t> cursor_;   // build scratch
};

/// Which optional RobotView fields an algorithm's step() actually reads.
/// The engine's struct-of-arrays round loop skips assembling fields no
/// robot of the run declared -- skipping is observable only to a step()
/// that reads a field its algorithm disclaimed, so results are unchanged by
/// construction (and pinned by the faithful-planner comparison and the
/// golden packet traces). The all-true default keeps unported algorithms
/// on full views.
struct ViewNeeds {
  bool colocated = true;           ///< RobotView::colocated IDs.
  bool colocated_states = true;    ///< Exchanged co-located states.
  bool occupied_neighbors = true;  ///< Per-neighbor robot lists.
  bool empty_ports = true;         ///< Ports toward empty neighbors.

  /// Field-wise OR (the engine aggregates over all robots of a run).
  void merge(const ViewNeeds& o) {
    colocated |= o.colocated;
    colocated_states |= o.colocated_states;
    occupied_neighbors |= o.occupied_neighbors;
    empty_ports |= o.empty_ports;
  }
};

/// Builds the packet broadcast by the (robots on the) node `v`.
/// `with_neighborhood` controls whether neighbor information is included.
InfoPacket make_packet(const Graph& g, const Configuration& conf, NodeId v,
                       bool with_neighborhood);

/// Builds all packets (one per occupied node), ascending by sender.
std::vector<InfoPacket> make_all_packets(const Graph& g,
                                         const Configuration& conf,
                                         bool with_neighborhood);

/// Process-wide count of FULL broadcast assemblies (make_all_packets calls
/// and assemble_arena_metered calls without a PacketSource). Test hook: the
/// engine assembles the broadcast at most once per executed round. Reuse
/// and delta rounds of the delta-aware round loop do not count as
/// assemblies, so a round's broadcast is produced by exactly one of three
/// routes: assemblies + RoundLoopStats::broadcasts_reused +
/// broadcast_deltas == rounds.
std::size_t packet_assembly_count();

/// Wire size of one packet in bits, for the communication-cost metric:
/// robot IDs and counts cost ceil(log2(k+1)) bits, ports and degrees
/// ceil(log2(n)) bits (n = node count bounds both). The robot-ID lists are
/// counted in full, matching the paper's "full information" packets.
std::size_t packet_bit_size(const PacketView& packet, std::size_t k,
                            std::size_t n);

/// Record overload for hand-built packets (tests); identical result.
inline std::size_t packet_bit_size(const InfoPacket& packet, std::size_t k,
                                   std::size_t n) {
  return packet_bit_size(PacketSet(std::vector<InfoPacket>{packet})[0], k, n);
}

/// A previous, untampered broadcast that delta assembly copies clean
/// packets from.
struct PacketSource {
  const PacketArena& arena;
  /// Wire bits of each of `arena`'s packets, aligned to its header order.
  const std::vector<std::size_t>& bits_each;
  /// Node -> index of the header in `arena` whose packet the node's packet
  /// equals (copied), or negative (built afresh). Sized to the node count.
  const std::vector<std::int32_t>& node_to_packet;
};

/// The broadcast assembler: builds one packet per occupied node into
/// `arena` (cleared and refilled in place -- allocation-free once its
/// arrays have grown to steady state), headers sorted by sender, each
/// packet's pool slice contiguous, and meters the total wire size in the
/// same traversal (when `wire_bits` is non-null). Per-node construction
/// fans across `pool` when one is supplied; the output is identical at any
/// thread count and record for record equal to make_all_packets. When
/// `bits_each` / `nodes_each` are non-null they receive each packet's wire
/// bits / sender node, aligned to the sorted header order -- the per-packet
/// ledger a later delta assembly copies from. With a `source`, a node it
/// maps to a previous packet gets that packet's header, pool slice and
/// metered bits copied instead of rebuilt; the result is the same.
void assemble_arena_metered(PacketArena& arena, const Graph& g,
                            const Configuration& conf, bool with_neighborhood,
                            const NodeIndex& index, std::size_t* wire_bits,
                            ThreadPool* pool = nullptr,
                            std::vector<std::size_t>* bits_each = nullptr,
                            std::vector<NodeId>* nodes_each = nullptr,
                            const PacketSource* source = nullptr);

/// Assembles the full view of robot `id` standing on its node in `g`
/// (tests and one-shot callers; the engine fills its view arena in place
/// via fill_view). The view owns its packet set (own_packets).
/// Arrival ports and co-located states are filled in by the engine, which
/// owns that information.
RobotView make_view(const Graph& g, const Configuration& conf, RobotId id,
                    Round round, CommModel comm, bool neighborhood,
                    PacketSet packets);

/// In-place view assembly for the engine's persistent view arena: fills
/// `out` with exactly what make_view would produce for the fields `needs`
/// declares (plus the unconditional scalars: self, round, k, degree,
/// node_count, empty_neighbor_count, global_comm), reusing `out`'s vector
/// capacities across rounds. Undeclared fields are left cleared.
/// arrival_port, the borrowed state store, and reuse are reset for the
/// engine to fill, as in make_view. The packet fields are left as they
/// are: the engine points shared_packets at the round's set itself.
void fill_view(RobotView& out, const Graph& g, const Configuration& conf,
               RobotId id, Round round, CommModel comm, bool neighborhood,
               const NodeIndex& index, const ViewNeeds& needs);

}  // namespace dyndisp
