#include "core/planner.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <span>

#include "core/structure_cache.h"
#include "util/contract.h"

namespace dyndisp::core {

bool SlidePlan::operator==(const SlidePlan& other) const {
  return movers == other.movers;
}

void build_tree(TreeBuilder& builder, const ComponentGraph& cg,
                const PlannerConfig& config, SpanningTree& out) {
  if (config.tree == PlannerConfig::Tree::kBfs) {
    builder.build_bfs(cg, out);
  } else {
    builder.build_dfs(cg, out);
  }
}

void PlanWorkspace::append_movers(const ComponentGraph& cg,
                                  const SpanningTree& st,
                                  const PlannerConfig& config) {
  const ComponentNode* root_cn = cg.find(st.root());
  assert(root_cn != nullptr && root_cn->count >= 2);
  const std::size_t count_root = root_cn->count;

  // Algorithm 4's trimming: at most count(v_root) - 1 paths can be served,
  // one robot each; paths are kept in increasing leaf-name order, so
  // passing the trim bound as Algorithm 3's keep cap yields exactly the
  // trimmed set without ever materializing the discarded paths.
  std::size_t cap = count_root - 1;
  if (config.max_paths > 0 && config.max_paths < cap) cap = config.max_paths;
  paths_.compute(cg, st, cap);
  assert(paths_.size() <= count_root - 1);
  // Lemma 3 guarantees a path under the paper's model; an empty set can
  // only arise from lying (Byzantine) packets that hide empty neighbors.
  // Degrade gracefully: nobody in this component moves this round.

  // Root movers: the smallest-ID robot at the root stays settled; the rest
  // are assigned to the kept paths in ascending order. Each mover is
  // assigned exactly once (paths are node-disjoint and root movers are
  // distinct robots), so directives are appended unordered and sealed
  // into ascending-ID order in one sort. Path entries are dense indices,
  // shared by the component and its tree; the port at a path node toward
  // its successor is the successor's port_from_parent.
  const std::span<const RobotId> root_robots = cg.robots(*root_cn);
  const std::vector<TreeNode>& tn = st.nodes();
  for (std::size_t j = 0; j < paths_.size(); ++j) {
    const std::span<const std::uint32_t> path = paths_[j];
    const RobotId root_mover = root_robots[j + 1];

    if (path.size() == 1) {
      // Trivial path: the root itself borders an empty node.
      movers_.append(root_mover, MoveDirective{kInvalidPort, true});
      continue;
    }
    movers_.append(root_mover,
                   MoveDirective{tn[path[1]].port_from_parent, false});

    for (std::size_t i = 1; i < path.size(); ++i) {
      // The designated mover at a non-root path node: its largest-ID robot
      // (the smallest-ID robot stays settled; see DESIGN.md #4).
      const RobotId mover = cg.robots(cg.nodes()[path[i]]).back();
      if (i + 1 < path.size()) {
        movers_.append(mover,
                       MoveDirective{tn[path[i + 1]].port_from_parent, false});
      } else {
        movers_.append(mover, MoveDirective{kInvalidPort, true});
      }
    }
  }
}

const MoverMap& PlanWorkspace::plan_component(const ComponentGraph& cg,
                                              const SpanningTree& st,
                                              const PlannerConfig& config) {
  movers_.clear();
  append_movers(cg, st, config);
  movers_.seal();
  return movers_;
}

DYNDISP_COLD
SlidePlan plan_component(const ComponentGraph& cg, const SpanningTree& st,
                         const PlannerConfig& config) {
  PlanWorkspace workspace;
  return SlidePlan{workspace.plan_component(cg, st, config)};
}

// The warm-miss path: everything reachable from here refills retained
// buffers (the runtime twin is Memprobe.WarmPlanMissAllocatesAtMostThePlan).
DYNDISP_HOT
const MoverMap& PlanWorkspace::plan_round(const PacketSet& packets,
                                          const PlannerConfig& config) {
  components_.reset(packets);
  // Size every buffer for the whole set: no component, tree or path set of
  // it can outgrow its senders, robots or neighbor entries.
  std::size_t robots = 0, edges = 0;
  for (std::size_t i = 0, size = packets.size(); i < size; ++i) {
    robots += packets[i].robot_count();
    edges += packets[i].neighbor_count();
  }
  component_.reserve(packets.size(), robots, edges);
  trees_.reserve(packets.size(), edges);
  tree_.reserve(packets.size());
  paths_.reserve(packets.size());
  movers_.clear();
  movers_.reserve(robots);

  // Trivial (single-robot, edge-free) senders never carry multiplicity, so
  // they are split off without materializing their one-node graphs. Robot
  // sets of distinct components are disjoint, so appending every
  // component's movers and sealing once builds exactly their sorted union.
  for (RobotId seed; (seed = components_.next_seed(true)) != kNoRobot;) {
    components_.build_into(seed, component_);
    if (!component_.has_multiplicity()) continue;
    build_tree(trees_, component_, config, tree_);
    append_movers(component_, tree_, config);
  }
  movers_.seal();
  return movers_;
}

DYNDISP_COLD
SlidePlan plan_round(const PacketSet& packets, const PlannerConfig& config) {
  PlanWorkspace workspace;
  return SlidePlan{workspace.plan_round(packets, config)};
}

namespace {

/// Instance ids for the lanes' thread-local memo; 0 means "no cache".
std::atomic<std::uint64_t> g_next_cache_id{1};

/// The one allocation a warm workspace miss makes: the immutable plan the
/// cache slot shares with borrowers, copied from the workspace's movers
/// (the workspace itself is refilled by the next miss).
DYNDISP_COLD
std::shared_ptr<const SlidePlan> publish(const MoverMap& movers) {
  return std::make_shared<const SlidePlan>(SlidePlan{movers});
}

}  // namespace

PlanCache::PlanCache()
    : id_(g_next_cache_id.fetch_add(1, std::memory_order_relaxed)) {}

PlanCache::Lane& PlanCache::this_lane() {
  thread_local std::uint64_t memo_cache = 0;
  thread_local Lane* memo_lane = nullptr;
  if (memo_cache != id_) {
    memo_lane = &add_lane();
    memo_cache = id_;
  }
  return *memo_lane;
}

// Once per thread per cache switch; the thread's lane persists until the
// cache dies (a later thread reusing a finished thread's id inherits it).
DYNDISP_COLD
PlanCache::Lane& PlanCache::add_lane() {
  const std::thread::id me = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Lane>& lane : lanes_)
    if (lane->owner == me) return *lane;
  lanes_.push_back(std::make_unique<Lane>(me));
  return *lanes_.back();
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
  // Only rounds the engine saw repeat or barely change (kSame,
  // kSmallDelta) consult the StructureCache: its exact hits and delta
  // rebuilds need a recent entry to reuse. A full-churn round could only
  // miss there, and storing it would retain an owning copy of the
  // broadcast storage -- pinning arenas the round context wants to
  // recycle; a plan probe's candidate (kUnknown) rarely repeats. Both are
  // planned in the retained workspace. StructureCache::full_build IS the
  // workspace's computation, so either route is bitwise identical
  // (StructureCache.MatchesPlanRoundOnRandomRounds and the faithful
  // per-robot planner pin it).
  if (structure_ && hints != nullptr && hints->valid && packets &&
      (hints->change == GraphChange::kSame ||
       hints->change == GraphChange::kSmallDelta)) {
    value_ = structure_->plan(packets, *hints, config);
  } else {
    value_ = publish(workspace_.plan_round(packets, config));
  }
  valid_ = true;
  return *value_;
}

const SlidePlan& PlanCache::lookup(const PacketSet& packets,
                                   const ReuseHints* hints,
                                   const PlannerConfig& config) {
  Lane& lane = this_lane();
  if (lane.value && lane.key.identity() == packets.identity() &&
      lane.config == config) {
    lane.lane_hits.store(lane.lane_hits.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
    return *lane.value;
  }
  // NOLINTNEXTLINE-dyndisp(hotpath-blocking): the sanctioned
  // serialization point, reached once per lane per new set (the engine's
  // lead step pays the round's miss here before the fan-out); identity
  // hits return above without it.
  std::lock_guard<std::mutex> lock(mu_);
  const SlidePlan& plan = get_locked(packets, hints, config);
  lane.key = key_;
  lane.config = config_;
  lane.value = value_;
  return plan;
}

const SlidePlan& PlanCache::get(const PacketSet& packets,
                                const PlannerConfig& config) {
  return lookup(packets, nullptr, config);
}

DYNDISP_HOT
const SlidePlan& PlanCache::get(const PacketSet& packets,
                                const ReuseHints& hints,
                                const PlannerConfig& config) {
  return lookup(packets, &hints, config);
}

void PlanCache::set_structure_cache(std::shared_ptr<StructureCache> cache) {
  std::lock_guard<std::mutex> lock(mu_);
  structure_ = std::move(cache);
}

std::size_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = hits_;
  for (const std::unique_ptr<Lane>& lane : lanes_)
    total += lane->lane_hits.load(std::memory_order_relaxed);
  return total;
}

std::size_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace dyndisp::core
