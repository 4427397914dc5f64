#include "sim/round_context.h"

#include <cassert>
#include <utility>

#include "graph/fingerprint.h"
#include "util/contract.h"

namespace dyndisp {

DYNDISP_HOT
void RoundContext::begin_round(const Configuration& conf) {
  packets_.reset();
  packet_bits_ = 0;

  // Rebuild the node index into its retained CSR buffers: a counting sort
  // into two flat arrays whose capacity persists across rounds, so
  // steady-state rounds allocate nothing here.
  index_.build(conf);
  conf_digest_ = 0;
  for (RobotId id = 1; id <= conf.robot_count(); ++id) {
    if (!conf.alive(id)) continue;
    conf_digest_ ^= fp_mix((static_cast<std::uint64_t>(id) << 32) |
                           conf.position(id));
  }
}

std::shared_ptr<PacketArena> RoundContext::ArenaPool::acquire() {
  // A reused buffer keeps its old contents: the assembler resizes every
  // array and overwrites every entry. Resizing from the old sizes grows the
  // arrays geometrically, where clearing first would regrow each to its
  // exact new size whenever the broadcast gains a packet, which a rooted
  // start does every round.
  for (const std::shared_ptr<PacketArena>& a : buffers_)
    if (a.use_count() == 1) return a;
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
void RoundContext::publish_packets(const Graph& g, const Configuration& conf,
                                   bool with_neighborhood,
                                   const ByzantineModel* byzantine,
                                   ThreadPool* pool) {
  assert(!packets_ && "the round's broadcast is published exactly once");
  std::shared_ptr<PacketArena> arena = arena_pool_.acquire();
  assemble_arena_metered(*arena, g, conf, with_neighborhood, index_,
                         &packet_bits_, pool);
  if (byzantine) byzantine->tamper(*arena);
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
