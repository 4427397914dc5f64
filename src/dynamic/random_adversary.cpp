#include "dynamic/random_adversary.h"

#include "graph/builders.h"

namespace dyndisp {

RandomAdversary::RandomAdversary(std::size_t n, std::size_t extra_edges,
                                 std::uint64_t seed)
    : n_(n), extra_edges_(extra_edges), seed_(seed) {}

void RandomAdversary::next_graph_into(Round, const Configuration&,
                                      Graph& out) {
  builders::random_connected_counter(n_, extra_edges_, seed_, emissions_++,
                                     pool_, scratch_, out);
}

}  // namespace dyndisp
