// RoundContext: the per-round shared artifacts, each assembled exactly once
// -- and, across rounds, assembled incrementally where the configuration and
// graph permit.
//
// One CCM round under global communication needs two shared products:
//   * the node -> alive-robots index (NodeIndex), and
//   * the packet broadcast for the round's graph, with its wire-bit size.
// The seed engine rebuilt the index and the broadcast twice per round (once
// to meter bits, once to plan); RoundContext assembles each exactly once,
// and every view of the round borrows the one broadcast. The states that
// co-located robots exchange are not kept here: the engine holds one
// per-robot store of them, which views borrow directly.
//
// Since the delta-aware round loop (see docs/PERFORMANCE.md), one context
// PERSISTS across the whole run: begin_round() rebuilds the index into
// retained buffers (no per-round reallocation) and retires the previous
// broadcast. Its one broadcast entry point, publish_packets(), picks the
// route itself -- handle reuse (identical graph and occupancy), delta
// assembly (rebuild only the packets whose content can have changed, copy
// the rest from the previous broadcast), or full assembly -- and diffs
// occupancy against the previous round only when the graph allows one of
// the first two. Every route produces a broadcast bitwise identical to full
// assembly; the engine's packets_sent / packet_bits_sent accounting is
// identical on all routes. Counters (not guesses) report how often each
// route ran.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "robots/configuration.h"
#include "sim/byzantine.h"
#include "sim/reuse_hints.h"
#include "sim/sensing.h"
#include "util/contract.h"

namespace dyndisp {

class ThreadPool;

class RoundContext {
 public:
  /// Starts a round (call it before anything else each round): rebuilds the
  /// node index (into retained buffers, keeping last round's for
  /// publish_packets' occupancy diff) and retires the previous round's
  /// broadcast into the source publish_packets copies from.
  void begin_round(const Configuration& conf);

  const NodeIndex& index() const { return index_; }

  /// XOR digest over alive robots of their (id, position) pair, mixed per
  /// robot -- the configuration half of the ReuseHints key.
  std::uint64_t conf_digest() const { return conf_digest_; }

  /// Publishes the round's broadcast for its actual graph `g`, exactly once
  /// per round, by the cheapest sound route:
  ///   * reuse -- `change` is kSame and no node's occupancy changed: the
  ///     previous round's handle is republished, bits ledger and all;
  ///   * delta -- `change` is kSame or kSmallDelta: packets of the dirty
  ///     closure (occupancy-changed nodes, their neighbors in `g`, and, on
  ///     kSmallDelta, the adjacency-changed `changed_graph_nodes`) are
  ///     rebuilt, the rest copied from the previous broadcast with their
  ///     metered bits;
  ///   * full -- everything else, and every round with a Byzantine model or
  ///     without an untampered previous broadcast to source from.
  /// Wire bits are metered pre-tamper (the honest-wire-cost metric), then
  /// the optional Byzantine model corrupts the set; tampered broadcasts are
  /// never reused or copied from. The result -- content, canonical sender
  /// order, and wire-bit total -- is bitwise identical on every route, and
  /// is frozen behind the shared handle every view of the round receives.
  void publish_packets(const Graph& g, const Configuration& conf,
                       bool with_neighborhood, const ByzantineModel* byzantine,
                       GraphChange change,
                       const std::vector<NodeId>& changed_graph_nodes,
                       ThreadPool* pool);

  /// Builds a broadcast for a candidate graph a trap adversary probes,
  /// without touching the context's own broadcast. Tampering applies (the
  /// adversary predicts what the robots will actually receive). Candidate
  /// arenas cycle through their own pool (same discipline as the round's),
  /// so a probe never contends with the round's own refill.
  PacketSet assemble_candidate_packets(const Graph& g,
                                       const Configuration& conf,
                                       bool with_neighborhood,
                                       const ByzantineModel* byzantine,
                                       ThreadPool* pool) const;

  /// The round's broadcast; falsy until publish_packets ran (or under
  /// local communication, where no packets propagate).
  const PacketSet& packets() const { return packets_; }

  /// Packets in the round's broadcast (== occupied nodes).
  std::size_t packet_count() const { return packets_.size(); }

  /// Total wire bits of the round's broadcast, metered during assembly (or
  /// carried over exactly on the reuse/delta routes).
  std::size_t packet_bits() const { return packet_bits_; }

  /// Reuse effectiveness, counted (cumulative over the context's lifetime).
  /// Observability only (DYNDISP_STATS, see util/contract.h): the
  /// digest-exclusion lint rule keeps these fields out of result digests.
  struct DYNDISP_STATS Counters {
    std::size_t broadcasts_reused = 0;  ///< Rounds on the reuse route.
    std::size_t broadcast_deltas = 0;   ///< Rounds on the delta route.
    std::size_t packets_copied = 0;     ///< Packets copied on delta rounds.
    std::size_t packets_rebuilt = 0;    ///< Packets rebuilt on delta rounds.
  };
  const Counters& counters() const { return counters_; }

 private:
  /// Arena buffers cycled across rounds.
  class ArenaPool {
   public:
    /// An arena free for refilling: a pooled buffer nothing else
    /// references (use_count() == 1 -- a buffer pinned by a view,
    /// plan-cache key, or structure-cache entry is skipped BY
    /// CONSTRUCTION, so in-place refill can never corrupt a broadcast
    /// someone still reads), else a fresh one. The pool is capped;
    /// overflow buffers are simply not retained.
    std::shared_ptr<PacketArena> acquire();

   private:
    std::vector<std::shared_ptr<PacketArena>> buffers_;
  };

  NodeIndex index_;
  NodeIndex prev_index_;  ///< Double buffer: last round's index.
  bool first_round_ = true;

  /// Nodes whose alive-robot list changed since the previous round,
  /// ascending -- including nodes that became empty. Filled by
  /// publish_packets only on rounds that may take the reuse or delta
  /// route, its only readers; stale on every other round.
  std::vector<NodeId> changed_nodes_;
  std::uint64_t conf_digest_ = 0;

  PacketSet packets_;
  PacketSet prev_packets_;
  /// The round's broadcast buffers. Small and
  /// bounded: current + previous broadcast plus however many rounds the
  /// caches pin, which the default StructureCache capacity keeps under the
  /// cap in steady state.
  ArenaPool arena_pool_;
  /// Candidate broadcasts' buffers (mutable: probing is const on the
  /// context; probes run sequentially, never concurrently).
  mutable ArenaPool candidate_pool_;
  /// Wire bits / sender node of each packet, aligned to packets_ order (and
  /// the prev_ pair to prev_packets_). Only maintained on untampered
  /// broadcasts -- the reuse and delta routes' sources.
  std::vector<std::size_t> packet_bits_each_, prev_packet_bits_each_;
  std::vector<NodeId> packet_nodes_, prev_packet_nodes_;
  std::size_t packet_bits_ = 0;
  std::size_t prev_packet_bits_ = 0;

  /// Delta-route scratch: node -> index of the previous packet it copies,
  /// or -1 for the dirty closure and nodes with no previous packet.
  std::vector<std::int32_t> node_to_prev_;
  Counters counters_;
};

}  // namespace dyndisp
