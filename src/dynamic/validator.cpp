#include "dynamic/validator.h"

#include <sstream>

#include "util/contract.h"

namespace dyndisp {

std::string validate_round_graph(const Graph& g, std::size_t n) {
  BfsScratch scratch;
  return validate_round_graph(g, n, scratch);
}

DYNDISP_HOT
std::string validate_round_graph(const Graph& g, std::size_t n,
                                 BfsScratch& scratch) {
  if (g.node_count() != n) {
    std::ostringstream os;
    os << "vertex set changed: expected " << n << " nodes, got "
       << g.node_count();
    return os.str();
  }
  if (std::string err = g.validate(); !err.empty()) return err;
  if (!is_connected(g, scratch)) return "graph is not connected";
  return {};
}

}  // namespace dyndisp
