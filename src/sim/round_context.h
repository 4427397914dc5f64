// RoundContext: the per-round shared artifacts, each assembled exactly once.
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
// One context persists across the whole run, so its buffers do too:
// begin_round() rebuilds the index in place and retires the previous
// broadcast, and publish_packets() assembles the new one in full into a
// pooled arena (docs/PERFORMANCE.md, "One broadcast route"). Algorithm 4
// changes occupancy every round until dispersion (Lemma 7), so a broadcast
// carried over from the previous round almost never applies; the context
// keeps none.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "robots/configuration.h"
#include "sim/byzantine.h"
#include "sim/sensing.h"

namespace dyndisp {

class ThreadPool;

class RoundContext {
 public:
  /// Starts a round (call it before anything else each round): rebuilds the
  /// node index into retained buffers and retires the previous round's
  /// broadcast.
  void begin_round(const Configuration& conf);

  const NodeIndex& index() const { return index_; }

  /// XOR digest over alive robots of their (id, position) pair, mixed per
  /// robot -- the configuration half of the ReuseHints key.
  std::uint64_t conf_digest() const { return conf_digest_; }

  /// Publishes the round's broadcast for its actual graph `g`, exactly once
  /// per round: a full assembly into a pooled arena, metered pre-tamper
  /// (the honest-wire-cost metric), then corrupted by the optional
  /// Byzantine model. The result -- content, canonical sender order, and
  /// wire-bit total -- is frozen behind the shared handle every view of the
  /// round receives.
  void publish_packets(const Graph& g, const Configuration& conf,
                       bool with_neighborhood, const ByzantineModel* byzantine,
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

  /// Total wire bits of the round's broadcast, metered during assembly.
  std::size_t packet_bits() const { return packet_bits_; }

 private:
  /// Arena buffers cycled across rounds.
  class ArenaPool {
   public:
    /// An arena free for refilling: a pooled buffer nothing else
    /// references (use_count() == 1 -- a buffer pinned by a view,
    /// plan-cache key, or structure-cache entry is skipped BY
    /// CONSTRUCTION, so in-place refill can never corrupt a broadcast
    /// someone still reads), else a fresh one. The pool is capped;
    /// overflow buffers are simply not retained. A reused buffer still
    /// holds its previous broadcast, which the assembler overwrites.
    std::shared_ptr<PacketArena> acquire();

   private:
    std::vector<std::shared_ptr<PacketArena>> buffers_;
  };

  NodeIndex index_;
  std::uint64_t conf_digest_ = 0;

  PacketSet packets_;
  /// The round's broadcast buffers. Small and bounded: the current
  /// broadcast plus however many rounds the caches pin, which the default
  /// StructureCache capacity keeps under the cap in steady state.
  ArenaPool arena_pool_;
  /// Candidate broadcasts' buffers (mutable: probing is const on the
  /// context; probes run sequentially, never concurrently).
  mutable ArenaPool candidate_pool_;
  std::size_t packet_bits_ = 0;
};

}  // namespace dyndisp
