#include "check/planted.h"

#include <memory>
#include <stdexcept>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/dispersion.h"
#include "dynamic/random_adversary.h"
#include "sim/algorithm.h"

namespace dyndisp::check {

namespace {

/// Valid random graphs until kDisconnectRound, then two disjoint paths
/// forever: every port label stays well-formed, only connectivity breaks.
class PlantedDisconnectAdversary final : public Adversary {
 public:
  PlantedDisconnectAdversary(std::size_t n, std::uint64_t seed)
      : n_(n), inner_(n, n / 3, seed) {}

  std::string name() const override { return "planted-disconnect"; }
  std::size_t node_count() const override { return n_; }

  void next_graph_into(Round r, const Configuration& conf,
                       Graph& out) override {
    if (r < kDisconnectRound) {
      inner_.next_graph_into(r, conf, out);
      return;
    }
    const std::size_t half = n_ / 2;
    edges_.clear();
    for (NodeId v = 1; v < half; ++v) edges_.emplace_back(v - 1, v);
    for (NodeId v = half + 1; v < n_; ++v) edges_.emplace_back(v - 1, v);
    out.assign_edges(n_, edges_);
  }

 private:
  std::size_t n_;
  RandomAdversary inner_;
  std::vector<std::pair<NodeId, NodeId>> edges_;  ///< The two paths.
};

/// Wraps a real Algorithm 4 robot but refuses to move from kLazyRound on
/// -- the "skipped move" bug class. It still claims the paper's lemmas, so
/// the progress oracle must convict it.
class LazyRobot final : public RobotAlgorithm {
 public:
  explicit LazyRobot(std::unique_ptr<RobotAlgorithm> inner)
      : inner_(std::move(inner)) {}

  std::unique_ptr<RobotAlgorithm> clone() const override {
    return std::make_unique<LazyRobot>(inner_->clone());
  }
  bool copy_into(RobotAlgorithm& target) const override {
    if (typeid(target) != typeid(LazyRobot)) return false;
    auto& t = static_cast<LazyRobot&>(target);
    if (!inner_->copy_into(*t.inner_)) t.inner_ = inner_->clone();
    return true;
  }

  Port step(const RobotView& view) override {
    if (view.round >= kLazyRound) return kInvalidPort;
    return inner_->step(view);
  }

  void serialize(BitWriter& out) const override { inner_->serialize(out); }
  std::string name() const override {
    return "planted-lazy(" + inner_->name() + ")";
  }
  bool requires_global_comm() const override {
    return inner_->requires_global_comm();
  }
  bool requires_neighborhood() const override {
    return inner_->requires_neighborhood();
  }

 private:
  std::unique_ptr<RobotAlgorithm> inner_;
};

}  // namespace

Toolbox planted_toolbox(const std::string& plant) {
  Toolbox toolbox;
  if (plant == "disconnect") {
    toolbox.add_adversary(
        kPlantedDisconnectAdversary,
        [](const std::string&, std::size_t n, std::uint64_t seed) {
          return std::make_unique<PlantedDisconnectAdversary>(n, seed);
        });
    toolbox.restrict_adversaries({kPlantedDisconnectAdversary});
  } else if (plant == "lazy") {
    toolbox.add_algorithm(
        kPlantedLazyAlgorithm,
        [](std::uint64_t) {
          const AlgorithmFactory inner = core::dispersion_factory_memoized();
          AlgorithmFactory factory = [inner](RobotId id, std::size_t k) {
            return std::make_unique<LazyRobot>(inner(id, k));
          };
          return campaign::AlgorithmChoice{std::move(factory), true, true};
        },
        /*claims_lemmas=*/true);
    toolbox.restrict_algorithms({kPlantedLazyAlgorithm});
  } else {
    throw std::invalid_argument("unknown plant '" + plant +
                                "' (disconnect|lazy)");
  }
  return toolbox;
}

}  // namespace dyndisp::check
