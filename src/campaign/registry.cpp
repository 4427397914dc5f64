#include "campaign/registry.h"

#include <stdexcept>

#include "baselines/blind_walk.h"
#include "baselines/dfs_dispersion.h"
#include "baselines/greedy_local.h"
#include "baselines/random_walk.h"
#include "core/dispersion.h"
#include "dynamic/churn_adversary.h"
#include "dynamic/clique_trap_adversary.h"
#include "dynamic/path_trap_adversary.h"
#include "dynamic/random_adversary.h"
#include "dynamic/ring_adversary.h"
#include "dynamic/star_star_adversary.h"
#include "dynamic/static_adversary.h"
#include "dynamic/t_interval_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "util/rng.h"

namespace dyndisp::campaign {

namespace {

template <typename Map>
std::vector<std::string> keys_of(const Map& map) {
  std::vector<std::string> out;
  out.reserve(map.size());
  for (const auto& [name, fn] : map) out.push_back(name);
  return out;
}

template <typename Map>
const typename Map::mapped_type& lookup(const Map& map, const std::string& name,
                                        const char* category) {
  const auto it = map.find(name);
  if (it == map.end())
    throw std::invalid_argument(std::string("unknown ") + category + " '" +
                                name + "'");
  return it->second;
}

}  // namespace

const Registry& Registry::instance() {
  static const Registry registry;
  return registry;
}

Registry::Registry() {
  using core::PlannerConfig;

  // -- Algorithms (seeds parameterize only the randomized walkers). --
  algorithms_["alg4"] = [](std::uint64_t) {
    return AlgorithmChoice{core::dispersion_factory_memoized(), true, true};
  };
  algorithms_["alg4-bfs"] = [](std::uint64_t) {
    return AlgorithmChoice{
        core::dispersion_factory_with_config({PlannerConfig::Tree::kBfs, 0}),
        true, true};
  };
  algorithms_["alg4-1path"] = [](std::uint64_t) {
    return AlgorithmChoice{
        core::dispersion_factory_with_config({PlannerConfig::Tree::kDfs, 1}),
        true, true};
  };
  algorithms_["dfs"] = [](std::uint64_t) {
    return AlgorithmChoice{baselines::dfs_dispersion_factory(), false, false};
  };
  algorithms_["greedy"] = [](std::uint64_t) {
    return AlgorithmChoice{baselines::greedy_local_factory(), false, true};
  };
  algorithms_["random-walk"] = [](std::uint64_t seed) {
    return AlgorithmChoice{baselines::random_walk_factory(seed * 911 + 3),
                           false, false};
  };
  algorithms_["blind-walk"] = [](std::uint64_t) {
    return AlgorithmChoice{baselines::blind_walk_factory(), true, false};
  };

  // -- Static graph families. --
  families_["path"] = [](std::size_t n, std::uint64_t) {
    return builders::path(n);
  };
  families_["cycle"] = [](std::size_t n, std::uint64_t) {
    return builders::cycle(n);
  };
  families_["star"] = [](std::size_t n, std::uint64_t) {
    return builders::star(n);
  };
  families_["complete"] = [](std::size_t n, std::uint64_t) {
    return builders::complete(n);
  };
  families_["grid"] = [](std::size_t n, std::uint64_t) {
    return builders::grid((n + 3) / 4, 4);
  };
  families_["torus"] = [](std::size_t n, std::uint64_t) {
    return builders::torus(3, (n + 2) / 3);
  };
  families_["hypercube"] = [](std::size_t n, std::uint64_t) {
    std::size_t d = 1;
    while ((std::size_t{1} << (d + 1)) <= n) ++d;
    return builders::hypercube(d);
  };
  families_["btree"] = [](std::size_t n, std::uint64_t) {
    return builders::binary_tree(n);
  };
  families_["lollipop"] = [](std::size_t n, std::uint64_t) {
    return builders::lollipop(n / 2, n - n / 2);
  };
  families_["random"] = [](std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    return builders::random_connected(n, n / 2, rng);
  };

  // -- Adversaries (dynamic-graph generators). --
  adversaries_["random"] = [](const std::string&, std::size_t n,
                              std::uint64_t seed) -> std::unique_ptr<Adversary> {
    return std::make_unique<RandomAdversary>(n, n / 3, seed);
  };
  adversaries_["tree"] = [](const std::string&, std::size_t n,
                            std::uint64_t seed) -> std::unique_ptr<Adversary> {
    return std::make_unique<RandomAdversary>(n, 0, seed);
  };
  adversaries_["churn"] = [](const std::string&, std::size_t n,
                             std::uint64_t seed) -> std::unique_ptr<Adversary> {
    Rng rng(seed);
    return std::make_unique<ChurnAdversary>(
        builders::random_connected(n, n / 2, rng), 2, seed);
  };
  adversaries_["star-star"] =
      [](const std::string&, std::size_t n,
         std::uint64_t seed) -> std::unique_ptr<Adversary> {
    return std::make_unique<StarStarAdversary>(n, true, seed);
  };
  adversaries_["ring"] = [](const std::string&, std::size_t n,
                            std::uint64_t seed) -> std::unique_ptr<Adversary> {
    return std::make_unique<RingAdversary>(
        n, RingAdversary::Strategy::kRandomEdge, seed);
  };
  adversaries_["ring-worst"] =
      [](const std::string&, std::size_t n,
         std::uint64_t seed) -> std::unique_ptr<Adversary> {
    return std::make_unique<RingAdversary>(
        n, RingAdversary::Strategy::kWorstEdge, seed);
  };
  adversaries_["t-interval"] =
      [](const std::string&, std::size_t n,
         std::uint64_t seed) -> std::unique_ptr<Adversary> {
    return std::make_unique<TIntervalAdversary>(
        std::make_unique<RandomAdversary>(n, n / 4, seed), 4);
  };
  adversaries_["static"] = [this](const std::string& family, std::size_t n,
                                  std::uint64_t seed)
      -> std::unique_ptr<Adversary> {
    return std::make_unique<StaticAdversary>(this->family(family, n, seed));
  };
  adversaries_["static-shuffle"] = [this](const std::string& family,
                                          std::size_t n, std::uint64_t seed)
      -> std::unique_ptr<Adversary> {
    return std::make_unique<StaticAdversary>(this->family(family, n, seed),
                                             true, seed);
  };
  adversaries_["path-trap"] =
      [](const std::string&, std::size_t n,
         std::uint64_t) -> std::unique_ptr<Adversary> {
    return std::make_unique<PathTrapAdversary>(n);
  };
  adversaries_["clique-trap"] =
      [](const std::string&, std::size_t n,
         std::uint64_t) -> std::unique_ptr<Adversary> {
    return std::make_unique<CliqueTrapAdversary>(n);
  };

  // -- Initial placements. --
  placements_["rooted"] = [](std::size_t n, std::size_t k, std::size_t,
                             std::uint64_t) {
    return placement::rooted(n, k);
  };
  placements_["random"] = [](std::size_t n, std::size_t k, std::size_t,
                             std::uint64_t seed) {
    Rng rng(seed);
    return placement::uniform_random(n, k, rng);
  };
  placements_["grouped"] = [](std::size_t n, std::size_t k, std::size_t groups,
                              std::uint64_t seed) {
    Rng rng(seed);
    return placement::grouped(n, k, groups, rng);
  };
  placements_["figure1"] = [](std::size_t n, std::size_t k, std::size_t,
                              std::uint64_t) {
    return placement::figure1(n, k);
  };
}

AlgorithmChoice Registry::algorithm(const std::string& name,
                                    std::uint64_t seed) const {
  return lookup(algorithms_, name, "algorithm")(seed);
}

std::unique_ptr<Adversary> Registry::adversary(const std::string& name,
                                               const std::string& family,
                                               std::size_t n,
                                               std::uint64_t seed) const {
  return lookup(adversaries_, name, "adversary")(family, n, seed);
}

Graph Registry::family(const std::string& name, std::size_t n,
                       std::uint64_t seed) const {
  return lookup(families_, name, "family")(n, seed);
}

Configuration Registry::placement(const std::string& name, std::size_t n,
                                  std::size_t k, std::size_t groups,
                                  std::uint64_t seed) const {
  return lookup(placements_, name, "placement")(n, k, groups, seed);
}

bool Registry::has_algorithm(const std::string& name) const {
  return algorithms_.count(name) != 0;
}
bool Registry::has_adversary(const std::string& name) const {
  return adversaries_.count(name) != 0;
}
bool Registry::has_family(const std::string& name) const {
  return families_.count(name) != 0;
}
bool Registry::has_placement(const std::string& name) const {
  return placements_.count(name) != 0;
}

std::vector<std::string> Registry::algorithm_names() const {
  return keys_of(algorithms_);
}
std::vector<std::string> Registry::adversary_names() const {
  return keys_of(adversaries_);
}
std::vector<std::string> Registry::family_names() const {
  return keys_of(families_);
}
std::vector<std::string> Registry::placement_names() const {
  return keys_of(placements_);
}

}  // namespace dyndisp::campaign
