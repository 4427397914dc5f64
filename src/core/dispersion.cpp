#include "core/dispersion.h"

#include <typeinfo>

#include "core/structure_cache.h"
#include "util/bits.h"
#include "util/contract.h"

namespace dyndisp::core {

DispersionRobot::DispersionRobot(RobotId id, std::size_t k,
                                 std::shared_ptr<PlanCache> cache,
                                 PlannerConfig config)
    : id_(id), k_(k), cache_(std::move(cache)), config_(config) {}

std::unique_ptr<RobotAlgorithm> DispersionRobot::clone() const {
  // Clones share the cache deliberately: plan_round is deterministic in the
  // packets, so dry-run probes hitting the cache see identical plans.
  return std::make_unique<DispersionRobot>(id_, k_, cache_, config_);
}

bool DispersionRobot::copy_into(RobotAlgorithm& target) const {
  if (typeid(target) != typeid(DispersionRobot)) return false;
  auto& t = static_cast<DispersionRobot&>(target);
  t.id_ = id_;
  t.k_ = k_;
  t.config_ = config_;
  // A probe arena refilled every probe already shares the cache; skipping
  // the redundant assignment skips two atomic reference-count updates.
  if (t.cache_ != cache_) t.cache_ = cache_;
  return true;
}

DYNDISP_HOT
Port DispersionRobot::step(const RobotView& view) {
  // Algorithm 4 is defined only with global communication and
  // 1-neighborhood knowledge. Outside that model the robot stays put, as
  // it does when lying packets leave no valid move, so a mismatched run
  // ends undispersed at its budget.
  if (!view.global_comm || !view.neighborhood_knowledge) return kInvalidPort;

  const SlidePlan* plan;
  SlidePlan local_plan;
  if (cache_) {
    // Prefer the handle-keyed cache path: all robots of a round share one
    // broadcast handle, so the lookup is a pointer compare, not a deep one.
    // The view's reuse hints ride along so a slot miss can consult the
    // cross-round StructureCache (invalid hints degrade to plan_round).
    plan = view.shared_packets
               ? &cache_->get(view.shared_packets, view.reuse, config_)
               : &cache_->get(view.packets(), config_);
  } else {
    local_plan = plan_round(view.packets(), config_);
    plan = &local_plan;
  }

  const auto it = plan->movers.find(id_);
  if (it == plan->movers.end()) return kInvalidPort;  // not a mover: settle
  const MoveDirective& directive = it->second;
  if (directive.exit_via_smallest_empty) {
    // The last node of a root path always has an empty neighbor (Lemma 5);
    // the mover takes the smallest port leading to one (Algorithm 4 l.12).
    // An empty list means the plan was derived from lying (Byzantine)
    // packets; staying put is the safe fallback.
    if (view.empty_ports.empty()) return kInvalidPort;
    return view.empty_ports.front();
  }
  // A directive port beyond the node's degree likewise only occurs when the
  // packets lied about ports; never under the paper's model.
  if (directive.port > view.degree) return kInvalidPort;
  return directive.port;
}

void DispersionRobot::serialize(BitWriter& out) const {
  // The complete persistent state: the robot's ID in [1, k], encoded in
  // ceil(log2(k+1)) bits. Lemma 8's Theta(log k) bound, audited by the
  // engine's memory meter.
  out.write(id_, bit_width_for(static_cast<std::uint64_t>(k_) + 1));
}

AlgorithmFactory dispersion_factory() {
  return [](RobotId id, std::size_t k) {
    return std::make_unique<DispersionRobot>(id, k);
  };
}

AlgorithmFactory dispersion_factory_memoized() {
  auto cache = std::make_shared<PlanCache>();
  // The cross-round StructureCache is attached unconditionally; it is only
  // consulted when the engine hands out valid reuse hints (global
  // communication, no Byzantine tampering), and every plan it serves equals
  // plan_round's.
  cache->set_structure_cache(std::make_shared<StructureCache>());
  return [cache](RobotId id, std::size_t k) {
    return std::make_unique<DispersionRobot>(id, k, cache);
  };
}

AlgorithmFactory dispersion_factory_with_config(PlannerConfig config,
                                                bool memoized) {
  auto cache = memoized ? std::make_shared<PlanCache>() : nullptr;
  if (cache) cache->set_structure_cache(std::make_shared<StructureCache>());
  return [cache, config](RobotId id, std::size_t k) {
    return std::make_unique<DispersionRobot>(id, k, cache, config);
  };
}

}  // namespace dyndisp::core
