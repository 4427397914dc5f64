#include "robots/placement.h"

#include <numeric>
#include <stdexcept>
#include <string>

namespace dyndisp::placement {

namespace {

// Sizes come from untrusted input (specs, CLI flags, repro artifacts):
// throw, so a campaign records a failed job instead of aborting.
void require(bool ok, const char* placement, const char* rule, std::size_t n,
             std::size_t k) {
  if (ok) return;
  throw std::invalid_argument(std::string(placement) + " placement needs " +
                              rule + "; got k=" + std::to_string(k) +
                              " n=" + std::to_string(n));
}

}  // namespace

Configuration rooted(std::size_t n, std::size_t k, NodeId root) {
  require(k <= n && root < n, "rooted", "k <= n and root < n", n, k);
  return Configuration(n, std::vector<NodeId>(k, root));
}

Configuration uniform_random(std::size_t n, std::size_t k, Rng& rng) {
  require(k <= n, "random", "k <= n", n, k);
  std::vector<NodeId> pos(k);
  for (auto& p : pos) p = static_cast<NodeId>(rng.below(n));
  return Configuration(n, std::move(pos));
}

Configuration grouped(std::size_t n, std::size_t k, std::size_t groups,
                      Rng& rng) {
  require(groups >= 1 && groups <= k && groups <= n, "grouped",
          "1 <= groups <= min(k, n)", n, k);
  std::vector<NodeId> nodes(n);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  rng.shuffle(nodes);
  std::vector<NodeId> pos(k);
  for (std::size_t i = 0; i < k; ++i) pos[i] = nodes[i % groups];
  return Configuration(n, std::move(pos));
}

Configuration figure1(std::size_t n, std::size_t k) {
  require(k >= 3 && k <= n, "figure1", "3 <= k <= n", n, k);
  std::vector<NodeId> pos(k);
  pos[0] = 0;  // the doubled node "v"
  pos[1] = 0;
  for (std::size_t i = 2; i < k; ++i) pos[i] = static_cast<NodeId>(i - 1);
  return Configuration(n, std::move(pos));
}

Configuration explicit_positions(std::size_t n, std::vector<NodeId> positions) {
  return Configuration(n, std::move(positions));
}

}  // namespace dyndisp::placement
