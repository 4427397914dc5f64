#include "core/structure_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dyndisp::core {

StructureCache::StructureCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

DYNDISP_COLD
StructureCache::CachedComponent StructureCache::build_component(
    RobotId seed, const PlannerConfig& config) {
  CachedComponent cc;
  builder_.build_into(seed, component_);
  cc.graph = std::make_shared<const ComponentGraph>(component_);
  if (component_.has_multiplicity()) {
    build_tree(trees_, component_, config, tree_);
    cc.tree = std::make_shared<const SpanningTree>(tree_);
    cc.movers = std::make_shared<const SlidePlan>(
        SlidePlan{planner_.plan_component(component_, tree_, config)});
  }
  return cc;
}

DYNDISP_COLD
StructureCache::CachedComponent StructureCache::build_one(
    RobotId seed, const PlannerConfig& config, std::vector<bool>& assigned) {
  CachedComponent cc = build_component(seed, config);
  for (const ComponentNode& cn : cc.graph->nodes()) {
    assert(cn.name < assigned.size());
    assigned[cn.name] = true;
  }
  return cc;
}

DYNDISP_COLD
bool StructureCache::try_delta(const Entry& prev, const PacketSet& packets,
                               const PlannerConfig& config, Entry& out) {
  const PacketSet& old_pk = prev.packets;
  const std::size_t new_size = packets.size();
  const std::size_t old_size = old_pk.size();

  RobotId max_id = 0;
  for (std::size_t p = 0; p < new_size; ++p)
    max_id = std::max(max_id, packets[p].sender());
  for (std::size_t p = 0; p < old_size; ++p)
    max_id = std::max(max_id, old_pk[p].sender());

  // Per-sender status: absent from the new set (default), unchanged packet,
  // or new/changed packet. Both packet sets are sender-ascending, so a
  // two-pointer walk classifies every sender in one pass, comparing
  // packets by PacketView's deep equality.
  enum : std::uint8_t { kAbsent = 0, kClean = 1, kDirty = 2 };
  std::vector<std::uint8_t> status(static_cast<std::size_t>(max_id) + 1,
                                   kAbsent);
  std::vector<std::pair<RobotId, PacketView>> dirty;
  // Past half the senders dirty, the diff bookkeeping outweighs the reuse --
  // and the walk aborts the moment that is certain, so churn-heavy rounds
  // (every round under the random adversaries) pay for a prefix of the
  // packet comparisons, not all of them.
  const std::size_t max_dirty = new_size / 2;
  std::size_t i = 0, j = 0;
  while (i < new_size || j < old_size) {
    if (j >= old_size ||
        (i < new_size && packets[i].sender() < old_pk[j].sender())) {
      const PacketView pkt = packets[i];
      status[pkt.sender()] = kDirty;
      dirty.emplace_back(pkt.sender(), pkt);
      ++i;
    } else if (i >= new_size || old_pk[j].sender() < packets[i].sender()) {
      ++j;  // sender vanished; stays kAbsent
    } else {
      const PacketView pkt = packets[i];
      if (pkt == old_pk[j]) {
        status[pkt.sender()] = kClean;
      } else {
        status[pkt.sender()] = kDirty;
        dirty.emplace_back(pkt.sender(), pkt);
      }
      ++i;
      ++j;
    }
    if (dirty.size() > max_dirty) return false;
  }

  std::vector<bool> assigned(static_cast<std::size_t>(max_id) + 1, false);
  out.components.clear();
  out.trivial.clear();
  std::uint64_t rebuilt = 0, reused = 0;

  // One sender index for every component this round rebuilds (built only
  // after the dirty walk committed to the delta path, so aborted rounds
  // never pay for it).
  builder_.reset(packets);

  // Single-robot senders whose packets list no occupied neighbor always form
  // a one-node, edge-free, plan-free component (see
  // ComponentBuilder::next_seed); record the name instead of running
  // Algorithm 1 on them.
  const auto is_trivial = [](const PacketView& p) {
    return p.count() == 1 && p.neighbor_count() == 0;
  };

  // 1. Rebuild from the dirty seeds (ascending). A seed already absorbed by
  // an earlier dirty component is skipped.
  for (const auto& [seed, pkt] : dirty) {
    if (assigned[seed]) continue;
    if (is_trivial(pkt)) {
      assigned[seed] = true;
      out.trivial.push_back(seed);
      ++rebuilt;
      continue;
    }
    out.components.push_back(build_one(seed, config, assigned));
    ++rebuilt;
  }
  // 2. Reuse previous components whose members are all present, unchanged,
  // and not absorbed by a rebuilt component -- and previous trivial senders
  // under the same (one-member) condition.
  for (const CachedComponent& pc : prev.components) {
    bool reusable = true;
    for (const ComponentNode& cn : pc.graph->nodes()) {
      if (cn.name >= status.size() || status[cn.name] != kClean ||
          assigned[cn.name]) {
        reusable = false;
        break;
      }
    }
    if (!reusable) continue;
    for (const ComponentNode& cn : pc.graph->nodes()) assigned[cn.name] = true;
    out.components.push_back(pc);
    ++reused;
  }
  for (const RobotId s : prev.trivial) {
    if (s >= status.size() || status[s] != kClean || assigned[s]) continue;
    assigned[s] = true;
    out.trivial.push_back(s);
    ++reused;
  }
  // 3. Defensive sweep: every sender must belong to exactly one component.
  // Under the endpoints-both-dirty argument nothing is left over, but
  // correctness must not hinge on that argument: build whatever remains.
  for (std::size_t p = 0; p < new_size; ++p) {
    const PacketView pkt = packets[p];
    if (assigned[pkt.sender()]) continue;
    if (is_trivial(pkt)) {
      assigned[pkt.sender()] = true;
      out.trivial.push_back(pkt.sender());
      ++rebuilt;
      continue;
    }
    out.components.push_back(build_one(pkt.sender(), config, assigned));
    ++rebuilt;
  }

  std::sort(out.components.begin(), out.components.end(),
            [](const CachedComponent& a, const CachedComponent& b) {
              return a.graph->nodes().front().name <
                     b.graph->nodes().front().name;
            });
  std::sort(out.trivial.begin(), out.trivial.end());

  auto merged = std::make_shared<SlidePlan>();
  // Robot sets of distinct components are disjoint, so append + one seal
  // builds their sorted union.
  for (const CachedComponent& cc : out.components) {
    if (!cc.movers) continue;
    merged->movers.append_all(cc.movers->movers);
  }
  merged->movers.seal();
  out.merged = std::move(merged);

  stats_.components_reused += reused;
  stats_.components_rebuilt += rebuilt;
  return true;
}

DYNDISP_COLD
void StructureCache::full_build(const PacketSet& packets,
                                const PlannerConfig& config, Entry& out) {
  out.components.clear();
  auto merged = std::make_shared<SlidePlan>();
  builder_.reset(packets);
  for (RobotId seed; (seed = builder_.next_seed(true)) != kNoRobot;) {
    CachedComponent& cc = out.components.emplace_back(
        build_component(seed, config));
    if (cc.movers) merged->movers.append_all(cc.movers->movers);
  }
  out.trivial = builder_.trivial();
  merged->movers.seal();
  out.merged = std::move(merged);
}

DYNDISP_HOT
std::shared_ptr<const SlidePlan> StructureCache::plan(
    const PacketSet& packets, const ReuseHints& hints,
    const PlannerConfig& config) {
  assert(packets && "the cache retains the set across rounds");
  assert(hints.valid && "callers with invalid hints must use plan_round");
  // NOLINTNEXTLINE-dyndisp(hotpath-blocking): the cache is shared by all
  // robots of a run and the engine's plan probes; this lock is the
  // sanctioned serialization point and is uncontended per round.
  std::lock_guard<std::mutex> lock(mu_);

  for (std::size_t idx = 0; idx < entries_.size(); ++idx) {
    Entry& e = entries_[idx];
    if (e.graph_fp != hints.graph_fp || e.conf_digest != hints.conf_digest ||
        e.neighborhood != hints.neighborhood || !(e.config == config)) {
      continue;
    }
    // Digests matched; contents decide (collision-immune exact hit).
    if (!(e.packets == packets)) continue;
    if (idx != 0) {
      std::rotate(entries_.begin(), entries_.begin() + idx,
                  entries_.begin() + idx + 1);
    }
    ++stats_.exact_hits;
    return entries_.front().merged;
  }

  Entry fresh;
  fresh.graph_fp = hints.graph_fp;
  fresh.conf_digest = hints.conf_digest;
  fresh.neighborhood = hints.neighborhood;
  fresh.config = config;
  fresh.packets = packets;

  // Delta candidate: the most recent entry under the same sensing model and
  // planner config (entries are most-recent-first).
  Entry* candidate = nullptr;
  for (Entry& e : entries_) {
    if (e.neighborhood == hints.neighborhood && e.config == config) {
      candidate = &e;
      break;
    }
  }
  if (candidate != nullptr && try_delta(*candidate, packets, config, fresh)) {
    ++stats_.delta_rounds;
  } else {
    full_build(packets, config, fresh);
    ++stats_.full_builds;
  }

  entries_.insert(entries_.begin(), std::move(fresh));
  if (entries_.size() > capacity_) {
    entries_.pop_back();
    ++stats_.evictions;
  }
  return entries_.front().merged;
}

StructureCacheStats StructureCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dyndisp::core
