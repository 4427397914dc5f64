// Initial placement generators for Conf_0.
//
// The paper distinguishes *rooted* initial configurations (all robots on one
// node; used by the lower bound of Theorem 3) from arbitrary ones. The
// placements here cover both plus the specific trap configuration of Fig. 1.
// Each generator throws std::invalid_argument when its sizes do not fit
// (k > n, bad group count).
#pragma once

#include <cstddef>
#include <vector>

#include "robots/configuration.h"
#include "util/rng.h"
#include "util/types.h"

namespace dyndisp::placement {

/// All k robots on node `root` (rooted configuration).
Configuration rooted(std::size_t n, std::size_t k, NodeId root = 0);

/// Robots placed independently and uniformly at random on nodes.
Configuration uniform_random(std::size_t n, std::size_t k, Rng& rng);

/// Robots spread over `groups` random distinct nodes, sizes as equal as
/// possible (yields several multiplicity nodes). Requires 1 <= groups <= k,
/// groups <= n.
Configuration grouped(std::size_t n, std::size_t k, std::size_t groups,
                      Rng& rng);

/// The Fig. 1 trap: nodes 0..k-2 form the occupied path positions; node 0
/// ("v" in the figure) holds robots {1, 2}; nodes 1..k-2 hold one robot each.
/// Caller is responsible for pairing this with the path-trap adversary.
Configuration figure1(std::size_t n, std::size_t k);

/// Explicit positions (1-based robot id i+1 sits on positions[i]).
Configuration explicit_positions(std::size_t n, std::vector<NodeId> positions);

}  // namespace dyndisp::placement
