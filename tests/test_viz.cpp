// Tests for the SVG renderer: structural well-formedness, occupancy
// coloring, and animation layering.
#include <gtest/gtest.h>

#include "core/dispersion.h"
#include "dynamic/static_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "viz/svg.h"

namespace dyndisp {
namespace {

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0, pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

TEST(SvgFrame, ContainsAllNodesAndEdges) {
  const Graph g = builders::cycle(6);
  const Configuration conf(6, {0, 0, 3});
  const std::string svg = viz::render_frame(g, conf);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_EQ(count_occurrences(svg, "<circle"), 6u);
  EXPECT_EQ(count_occurrences(svg, "<line"), 6u);
}

TEST(SvgFrame, ColorsEncodeOccupancy) {
  const Graph g = builders::path(3);
  const Configuration conf(3, {0, 0, 1});
  const std::string svg = viz::render_frame(g, conf);
  EXPECT_NE(svg.find("#ff9b8f"), std::string::npos);  // multiplicity node
  EXPECT_NE(svg.find("#8fc7ff"), std::string::npos);  // single robot
  EXPECT_NE(svg.find("#f4f4f4"), std::string::npos);  // empty node
}

TEST(SvgFrame, LabelsShowSmallestRobotAndSurplus) {
  const Graph g = builders::path(4);
  const Configuration conf(4, {0, 0, 0, 1});
  const std::string svg = viz::render_frame(g, conf);
  EXPECT_NE(svg.find(">r1+2<"), std::string::npos);  // 3 robots on node 0
  EXPECT_NE(svg.find(">r4<"), std::string::npos);
}

TEST(SvgAnimation, OneLayerPerRound) {
  StaticAdversary adv(builders::path(5));
  EngineOptions opt;
  Trace trace;
  opt.on_round = record_into(trace);
  opt.max_rounds = 100;
  Engine engine(adv, placement::rooted(5, 4), core::dispersion_factory(),
                opt);
  const RunResult r = engine.run();
  ASSERT_GE(trace.size(), 2u);
  const std::string svg = viz::render_animation(trace);
  EXPECT_EQ(count_occurrences(svg, "<g opacity="), trace.size());
  EXPECT_EQ(count_occurrences(svg, "<animate"), trace.size());
  EXPECT_EQ(count_occurrences(svg, "round "), trace.size());
  // Balanced tags.
  EXPECT_EQ(count_occurrences(svg, "<g "), count_occurrences(svg, "</g>"));
}

TEST(SvgAnimation, EmptyTraceRendersNothing) {
  EXPECT_TRUE(viz::render_animation(Trace{}).empty());
}

}  // namespace
}  // namespace dyndisp
