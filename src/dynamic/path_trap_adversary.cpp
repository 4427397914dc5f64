#include "dynamic/path_trap_adversary.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dyndisp {

namespace {

/// The port permutation swapping a degree-2 node's two ports.
const std::vector<std::size_t>& swap_two_ports() {
  static const std::vector<std::size_t> perm{1, 0};
  return perm;
}

}  // namespace

PathTrapAdversary::PathTrapAdversary(std::size_t n, std::uint64_t seed,
                                     std::size_t random_candidates)
    : n_(n), rng_(seed), random_candidates_(random_candidates) {}

void PathTrapAdversary::build_candidate(const NodeId* order,
                                        const std::vector<bool>& flip,
                                        std::size_t flip_offset, Graph& g) {
  const std::size_t alpha = base_.size();
  edges_.clear();
  for (std::size_t i = 1; i < alpha; ++i)
    edges_.emplace_back(order[i - 1], order[i]);
  if (!empty_.empty()) {
    const NodeId center = empty_.front();
    edges_.emplace_back(order[alpha - 1], center);
    for (std::size_t i = 1; i < empty_.size(); ++i)
      edges_.emplace_back(center, empty_[i]);
  }
  g.assign_edges(n_, edges_);
  // Orientation flips: swapping the two ports of a degree-2 path node makes
  // "the port I used last time" / "port 1" style rules walk backward.
  for (std::size_t i = 0; i < alpha; ++i) {
    if (flip[flip_offset + i] && g.degree(order[i]) == 2)
      g.permute_ports(order[i], swap_two_ports(), port_scratch_);
  }
}

void PathTrapAdversary::next_graph_into(Round, const Configuration& conf,
                                        Graph& out) {
  assert(conf.node_count() == n_);
  empty_.clear();
  base_.clear();
  for (NodeId v = 0; v < n_; ++v)
    (conf.count_at(v) == 0 ? empty_ : base_).push_back(v);

  if (base_.empty() || conf.multiplicity_count() == 0) {
    // Dispersed (or no robots): the game is over; any connected graph works.
    edges_.clear();
    for (NodeId v = 1; v < n_; ++v) edges_.emplace_back(0, v);
    out.assign_edges(n_, edges_);
    return;
  }

  // Path ordering: multiplicity nodes first (farthest from the blob), so the
  // blob-adjacent end is a singleton whenever one exists. Ties keep node
  // order -- a stable sort of the ascending list, without its buffer.
  std::sort(base_.begin(), base_.end(), [&](NodeId a, NodeId b) {
    const std::size_t ca = conf.count_at(a), cb = conf.count_at(b);
    return ca != cb ? ca > cb : a < b;
  });

  const std::size_t alpha = base_.size();
  const std::size_t k = conf.alive_count();

  // Candidate generation: orderings x flip masks, probed against the
  // algorithm. The 1 + alpha deterministic candidates (no flip, then one
  // flip per path node) come first, then the random ones -- every random
  // ordering and flip mask is drawn before the first probe, so the RNG
  // stream does not depend on where the search stops.
  random_orders_.clear();
  random_flips_.clear();
  for (std::size_t c = 0; c < random_candidates_; ++c) {
    const std::size_t at = random_orders_.size();
    random_orders_.insert(random_orders_.end(), base_.begin(), base_.end());
    if (alpha > 2) {
      // Keep the multiplicity block in front; shuffle the singleton tail.
      tail_.assign(base_.begin() + 1, base_.end());
      rng_.shuffle(tail_);
      std::copy(tail_.begin(), tail_.end(), random_orders_.begin() + at + 1);
    }
    for (std::size_t i = 0; i < alpha; ++i)
      random_flips_.push_back(rng_.chance(0.5));
  }

  // Accept the first candidate on which the occupied-node count does not
  // grow; otherwise fall back to the candidate minimizing it.
  flip_.assign(alpha, false);
  std::size_t best_occupied = static_cast<std::size_t>(-1);
  const std::size_t candidates = 1 + alpha + random_candidates_;
  for (std::size_t c = 0; c < candidates; ++c) {
    if (c < 1 + alpha) {
      // Candidate c >= 1 flips path node c - 1 alone: move the one set bit.
      if (c > 1) flip_[c - 2] = false;
      if (c > 0) flip_[c - 1] = true;
      build_candidate(base_.data(), flip_, 0, candidate_);
    } else {
      const std::size_t at = (c - 1 - alpha) * alpha;
      build_candidate(random_orders_.data() + at, random_flips_, at,
                      candidate_);
    }
    if (!probe_) {  // no probe installed: emit the canonical trap
      std::swap(out, candidate_);
      return;
    }
    apply_plan(candidate_, conf, probe_(candidate_), after_);
    const std::size_t after = after_.occupied_count();
    if (after <= conf.occupied_count()) {
      std::swap(out, candidate_);
      return;
    }
    if (after < best_occupied) {
      best_occupied = after;
      std::swap(best_, candidate_);
    }
  }
  if (best_occupied >= k) ++failures_;  // a candidate-proof algorithm dispersed
  std::swap(out, best_);
}

}  // namespace dyndisp
