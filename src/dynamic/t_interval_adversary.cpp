#include "dynamic/t_interval_adversary.h"

#include <cassert>
#include <sstream>
#include <utility>

namespace dyndisp {

TIntervalAdversary::TIntervalAdversary(std::unique_ptr<Adversary> inner,
                                       std::size_t t)
    : inner_(std::move(inner)), t_(t) {
  assert(inner_ != nullptr);
  assert(t_ >= 1);
}

std::string TIntervalAdversary::name() const {
  std::ostringstream os;
  os << t_ << "-interval(" << inner_->name() << ")";
  return os.str();
}

void TIntervalAdversary::next_graph_into(Round r, const Configuration& conf,
                                         Graph& out) {
  if (!have_current_ || r % t_ == 0) {
    inner_->next_graph_into(r, conf, current_);
    have_current_ = true;
  }
  out = current_;
}

}  // namespace dyndisp
