#include "dynamic/static_adversary.h"

#include <utility>

namespace dyndisp {

StaticAdversary::StaticAdversary(Graph g, bool reshuffle_ports,
                                 std::uint64_t seed)
    : graph_(std::move(g)),
      reshuffle_ports_(reshuffle_ports),
      seed_(seed) {}

std::string StaticAdversary::name() const {
  return reshuffle_ports_ ? "static+port-shuffle" : "static";
}

void StaticAdversary::next_graph_into(Round, const Configuration&,
                                      Graph& out) {
  if (reshuffle_ports_)
    graph_.shuffle_ports_counter(seed_, emissions_++, pool_,
                                 shuffle_scratch_);
  has_emitted_ = true;
  out = graph_;
}

}  // namespace dyndisp
