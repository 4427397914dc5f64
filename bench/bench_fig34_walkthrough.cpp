// Regenerates the worked example of Figs. 3 and 4: a 15-node, 17-edge round
// graph with 14 robots forming two connected components. Prints every
// intermediate structure of Section V/VI -- info packets, the two connected
// components (Algorithm 1), their spanning trees (Algorithm 2), the
// LeafNodeSets and disjoint root paths (Algorithm 3), and the sliding step
// of Algorithm 4 (Fig. 4(b)) -- then runs the algorithm to completion,
// showing the per-round +1 progress of Lemma 7.
//
// The paper's figure is not machine-readable, so the instance here is a
// faithful re-creation of its parameters (15 nodes, 17 edges, 14 robots,
// two components, multiplicity roots) rather than a pixel-exact copy; every
// printed structure is additionally checked against the lemmas.
#include <cstdio>
#include <sstream>

#include "core/component.h"
#include "core/disjoint_paths.h"
#include "core/dispersion.h"
#include "core/planner.h"
#include "core/spanning_tree.h"
#include <fstream>

#include "dynamic/static_adversary.h"
#include "graph/io.h"
#include "viz/svg.h"
#include "robots/configuration.h"
#include "sim/engine.h"
#include "sim/sensing.h"
#include "sim/trace.h"

namespace {

using namespace dyndisp;

Graph fig3_graph() {
  return Graph::from_edges(15, {{0, 1},
                                {1, 2},
                                {2, 3},
                                {3, 4},
                                {4, 5},
                                {0, 2},
                                {3, 5},
                                {8, 9},
                                {9, 10},
                                {10, 11},
                                {11, 12},
                                {8, 10},
                                {5, 6},
                                {6, 8},
                                {4, 13},
                                {13, 14},
                                {14, 7}});
}

Configuration fig3_config() {
  // robot id (1-based) -> node.
  return Configuration(
      15, {0, 8, 5, 8, 1, 9, 2, 10, 11, 11, 12, 0, 3, 4});
}

void print_component(const core::ComponentGraph& cg, const char* tag) {
  std::printf("component %s: %zu nodes, root (smallest multiplicity) = r%u\n",
              tag, cg.size(), cg.root_name());
  for (const auto& node : cg.nodes()) {
    std::printf("  node[r%u] count=%zu deg=%zu robots={", node.name,
                node.count, node.degree);
    const auto robots = cg.robots(node);
    for (std::size_t i = 0; i < robots.size(); ++i)
      std::printf("%s%u", i ? "," : "", robots[i]);
    std::printf("} edges={");
    const auto edges = cg.edges(node);
    for (std::size_t i = 0; i < edges.size(); ++i)
      std::printf("%sp%u->r%u", i ? ", " : "", edges[i].first,
                  edges[i].second);
    std::printf("}%s\n", node.has_empty_neighbor() ? "  [empty neighbor]" : "");
  }
}

void print_tree(const core::SpanningTree& st) {
  std::printf("spanning tree rooted at r%u:\n", st.root());
  for (const auto& tn : st.nodes()) {
    if (tn.parent == kNoRobot) {
      std::printf("  r%u (root)\n", tn.name);
    } else {
      std::printf("  r%u -- parent r%u (up via p%u, down via p%u), depth %zu\n",
                  tn.name, tn.parent, tn.port_to_parent, tn.port_from_parent,
                  tn.depth);
    }
  }
}

void print_paths(const std::vector<core::RootPath>& paths) {
  std::printf("disjoint root paths (%zu):\n", paths.size());
  for (const auto& path : paths) {
    std::printf("  ");
    for (std::size_t i = 0; i < path.size(); ++i)
      std::printf("%sr%u", i ? " -> " : "", path[i]);
    if (path.size() == 1) std::printf(" (trivial: root borders empty node)");
    std::printf("\n");
  }
}

}  // namespace

int main() {
  std::printf("== Figs. 3 & 4 walkthrough: one round of Algorithm 4 on a "
              "15-node, 17-edge graph with 14 robots ==\n\n");
  const Graph g = fig3_graph();
  const Configuration conf = fig3_config();
  std::printf("n=%zu m=%zu k=%zu, occupied=%zu, multiplicity nodes=%zu\n\n",
              g.node_count(), g.edge_count(), conf.robot_count(),
              conf.occupied_count(), conf.multiplicity_nodes().size());

  const auto packets = make_all_packets(g, conf, true);
  std::printf("info packets broadcast (%zu, one per occupied node):\n",
              packets.size());
  for (const auto& pkt : packets) {
    std::printf("  sender r%u count=%zu deg=%zu occupied-neighbors=%zu\n",
                pkt.sender, pkt.count, pkt.degree,
                pkt.occupied_neighbors.size());
  }
  std::printf("\n-- Algorithm 1: connected components (Fig. 3b) --\n");
  const auto components = core::build_all_components(packets);
  bool ok = components.size() == 2;
  print_component(components[0], "CG^1 (around node v with robots {1,12})");
  print_component(components[1], "CG^2 (around node with robots {2,4})");

  std::printf("\n-- Algorithm 2: component spanning trees (Fig. 3c) --\n");
  std::vector<core::SpanningTree> trees;
  for (const auto& cg : components) {
    trees.push_back(core::build_spanning_tree(cg));
    print_tree(trees.back());
    ok &= trees.back().size() == cg.size();
  }
  ok &= trees[0].root() == 1 && trees[1].root() == 2;

  std::printf("\n-- Algorithm 3: disjoint root paths (Fig. 4a) --\n");
  for (std::size_t i = 0; i < components.size(); ++i) {
    const auto leaves = core::leaf_node_set(components[i], trees[i]);
    std::printf("LeafNodeSet(ST^%zu) = {", i + 1);
    for (std::size_t j = 0; j < leaves.size(); ++j)
      std::printf("%sr%u", j ? "," : "", leaves[j]);
    std::printf("}\n");
    const auto paths = core::disjoint_paths(components[i], trees[i]);
    print_paths(paths);
    ok &= !paths.empty();
  }

  std::printf("\n-- Algorithm 4: the sliding step (Fig. 4b) --\n");
  const core::SlidePlan plan = core::plan_round(packets);
  for (const auto& [mover, directive] : plan.movers) {
    if (directive.exit_via_smallest_empty) {
      std::printf("  robot %u slides OFF the component into its smallest "
                  "empty port\n",
                  mover);
    } else {
      std::printf("  robot %u slides along the tree via port %u\n", mover,
                  directive.port);
    }
  }

  std::printf("\n-- full run to dispersion (static replay of the round "
              "graph) --\n");
  StaticAdversary adv(g);
  EngineOptions opt;
  opt.max_rounds = 100;
  Trace trace;
  opt.on_round = record_into(trace);
  opt.record_progress = true;
  Engine engine(adv, conf, core::dispersion_factory(), opt);
  const RunResult r = engine.run();
  for (std::size_t i = 0; i < trace.size(); ++i)
    std::fputs(trace.describe_round(i).c_str(), stdout);
  std::printf("dispersed=%s in %llu rounds (occupied %zu -> %zu of k=%zu); "
              "progress per round: ",
              r.dispersed ? "yes" : "NO",
              static_cast<unsigned long long>(r.rounds), r.initial_occupied,
              r.final_config.occupied_count(), r.k);
  for (std::size_t i = 0; i < r.occupied_per_round.size(); ++i)
    std::printf("%s%zu", i ? "->" : "", r.occupied_per_round[i]);
  std::printf("\n");
  ok &= r.dispersed && r.stalled_rounds == 0;

  // Lemma 7: the first round gains at least one node. (Not necessarily one
  // per component: in this very instance the two components' exit robots
  // both slide onto the same empty node 6 -- exactly the worst case the
  // proof of Lemma 7 warns about, "all robots slided from different root
  // paths may reach that node".)
  ok &= r.occupied_per_round.size() >= 2 &&
        r.occupied_per_round[1] >= r.occupied_per_round[0] + 1;

  // Companion artifacts: the round-0 graph as DOT (Fig. 3a) and the whole
  // run as an animated SVG.
  {
    std::ofstream dot("fig3_graph.dot");
    dot << to_dot(g, conf.occupancy(), "Fig3");
    std::ofstream svg("fig34_run.svg");
    svg << viz::render_animation(trace);
  }
  std::printf("\nartifacts: fig3_graph.dot, fig34_run.svg\n");

  std::printf("%s\n", ok ? "Walkthrough matches the paper's construction."
                         : "MISMATCH in the walkthrough!");
  return ok ? 0 : 1;
}
