#include "core/planner.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "core/structure_cache.h"
#include "util/contract.h"
#include "util/phase_clock.h"

namespace dyndisp::core {

namespace {
/// See planner_time_ns(): process-wide planning wall-time, observability
/// only, relaxed ordering (readers only ever diff snapshots they took on
/// the same thread as the runs they bracket).
std::atomic<std::uint64_t> g_planner_time_ns{0};
}  // namespace

std::uint64_t planner_time_ns() {
  return g_planner_time_ns.load(std::memory_order_relaxed);
}

void add_planner_time_ns(std::uint64_t ns) {
  g_planner_time_ns.fetch_add(ns, std::memory_order_relaxed);
}

bool SlidePlan::operator==(const SlidePlan& other) const {
  return movers == other.movers;
}

namespace {

/// Port at tree node `from` leading to its child `to`.
Port port_to_child(const SpanningTree& st, RobotId from, RobotId to) {
  const TreeNode* tn = st.find(from);
  assert(tn != nullptr);
  for (const auto& [port, child] : tn->children)
    if (child == to) return port;
  assert(false && "successor on a root path must be a tree child");
  return kInvalidPort;
}

}  // namespace

DYNDISP_COLD
SlidePlan plan_component(const ComponentGraph& cg, const SpanningTree& st,
                         const PlannerConfig& config) {
  SlidePlan plan;
  const ComponentNode* root_cn = cg.find(st.root());
  assert(root_cn != nullptr && root_cn->count >= 2);
  const std::size_t count_root = root_cn->count;

  // Algorithm 4's trimming: at most count(v_root) - 1 paths can be served,
  // one robot each; paths are kept in increasing leaf-name order, so
  // passing the trim bound as disjoint_paths' keep cap yields exactly the
  // trimmed set without ever materializing the discarded paths.
  std::size_t cap = count_root - 1;
  if (config.max_paths > 0 && config.max_paths < cap) cap = config.max_paths;
  std::vector<RootPath> paths = disjoint_paths(cg, st, cap);
  // Lemma 3 guarantees a path under the paper's model; an empty set can
  // only arise from lying (Byzantine) packets that hide empty neighbors.
  // Degrade gracefully: nobody in this component moves this round.
  if (paths.empty()) return plan;

  // Root movers: the smallest-ID robot at the root stays settled; the rest
  // are assigned to the kept paths in ascending order.
  assert(paths.size() <= count_root - 1);

  // Each mover is assigned exactly once (paths are node-disjoint and root
  // movers are distinct robots), so directives are appended unordered and
  // sealed into ascending-ID order in one sort.
  for (std::size_t j = 0; j < paths.size(); ++j) {
    const RootPath& path = paths[j];
    const RobotId root_mover = root_cn->robots[j + 1];

    if (path.size() == 1) {
      // Trivial path: the root itself borders an empty node.
      plan.movers.append(root_mover, MoveDirective{kInvalidPort, true});
      continue;
    }
    plan.movers.append(root_mover,
                       MoveDirective{port_to_child(st, path[0], path[1]), false});

    for (std::size_t i = 1; i < path.size(); ++i) {
      const ComponentNode* cn = cg.find(path[i]);
      assert(cn != nullptr);
      // The designated mover at a non-root path node: its largest-ID robot
      // (the smallest-ID robot stays settled; see DESIGN.md #4).
      const RobotId mover = cn->robots.back();
      if (i + 1 < path.size()) {
        plan.movers.append(
            mover, MoveDirective{port_to_child(st, path[i], path[i + 1]), false});
      } else {
        plan.movers.append(mover, MoveDirective{kInvalidPort, true});
      }
    }
  }
  plan.movers.seal();
  return plan;
}

DYNDISP_COLD
SlidePlan plan_round(const PacketSet& packets, const PlannerConfig& config) {
  SlidePlan plan;
  // Trivial (single-robot, edge-free) senders never carry multiplicity, so
  // the split form skips materializing their one-node graphs outright.
  std::vector<RobotId> trivial;
  for (const ComponentGraph& cg : build_components_split(packets, &trivial)) {
    if (!cg.has_multiplicity()) continue;
    const SpanningTree st = config.tree == PlannerConfig::Tree::kBfs
                                ? build_spanning_tree_bfs(cg)
                                : build_spanning_tree(cg);
    SlidePlan component_plan = plan_component(cg, st, config);
    // Robot sets of distinct components are disjoint, so appending then
    // sealing once builds exactly their sorted union.
    plan.movers.append_all(component_plan.movers);
  }
  plan.movers.seal();
  return plan;
}

const SlidePlan& PlanCache::get_locked(const PacketSet& packets,
                                       const ReuseHints* hints,
                                       const PlannerConfig& config) {
  // PacketSet equality starts with the storage-identity fast path, so a
  // pinned owning key makes repeat queries O(1); the deep comparison backs
  // fresh-storage queries with identical content (trap-adversary probes).
  if (valid_ && config_ == config && key_ == packets) {
    ++hits_;
    // Re-key on a content hit from different storage: the remaining steps
    // of the round pass this same set, so they hit on identity instead of
    // repeating the O(alpha^2) comparison, and the slot stops pinning the
    // earlier (probe) arena.
    if (key_.identity() != packets.identity()) key_ = packets;
    return *value_;
  }
  ++misses_;
  key_ = packets;
  config_ = config;
  // Planner-time attribution: the derivation below is the round's actual
  // planning work (everything else in this function is cache bookkeeping).
  const std::uint64_t plan_t0 = phase_clock_ns();
  // Full-churn rounds (the hint-carrying engine loop observed G_r sharing
  // essentially nothing with G_{r-1}) route straight to plan_round: the
  // StructureCache could only miss, and storing the round into it would
  // retain an owning copy of the broadcast storage -- pinning arenas the
  // round context wants to recycle. StructureCache::full_build IS
  // plan_round's computation, so the direct call is bitwise identical
  // (StructureCache.MatchesPlanRoundOnRandomRounds and the faithful
  // per-robot planner pin it).
  if (structure_ && hints != nullptr && hints->valid && packets &&
      hints->change != GraphChange::kFullChurn) {
    value_ = structure_->plan(packets, *hints, config);
  } else {
    // NOLINTNEXTLINE-dyndisp(hotpath-alloc): cache-miss slow path; the
    // steady-state round takes the structure_->plan branch above.
    value_ = std::make_shared<const SlidePlan>(plan_round(packets, config));
  }
  add_planner_time_ns(phase_clock_ns() - plan_t0);
  valid_ = true;
  return *value_;
}

const SlidePlan& PlanCache::get(const PacketSet& packets,
                                const PlannerConfig& config) {
  // NOLINTNEXTLINE-dyndisp(hotpath-blocking): the sanctioned
  // serialization point -- plan probes call in from ThreadPool lanes;
  // uncontended (and never waited on) in the per-round compute phase.
  std::lock_guard<std::mutex> lock(mu_);
  return get_locked(packets, nullptr, config);
}

DYNDISP_HOT
const SlidePlan& PlanCache::get(const PacketSet& packets,
                                const ReuseHints& hints,
                                const PlannerConfig& config) {
  // NOLINTNEXTLINE-dyndisp(hotpath-blocking): the sanctioned
  // serialization point -- plan probes call in from ThreadPool lanes;
  // uncontended (and never waited on) in the per-round compute phase.
  std::lock_guard<std::mutex> lock(mu_);
  return get_locked(packets, &hints, config);
}

void PlanCache::set_structure_cache(std::shared_ptr<StructureCache> cache) {
  std::lock_guard<std::mutex> lock(mu_);
  structure_ = std::move(cache);
}

std::size_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace dyndisp::core
