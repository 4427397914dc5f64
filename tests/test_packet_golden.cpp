// Golden packet-trace fixtures: the wire format is an observable.
//
// An EngineOptions::on_round observer records, for every executed
// global-comm round, the broadcast's (packet count, total wire bits,
// packet_set_digest of the published set).
// This file replays one Table-I tuple per comm model against checked-in
// per-round traces (tests/golden/), so any future drift in packet
// contents, bit metering, or the digest itself fails loudly with a
// per-round diff instead of a silent digest change rippling through the
// differential oracles.
//
// Regenerating (only when the wire format changes ON PURPOSE):
//   DYNDISP_REGEN_GOLDEN=1 ./build/tests/test_packet_golden
// rewrites the fixtures in the source tree; the diff is the review
// artifact.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/dfs_dispersion.h"
#include "check/trial.h"
#include "core/dispersion.h"
#include "dynamic/random_adversary.h"
#include "robots/placement.h"
#include "sim/engine.h"

#ifndef DYNDISP_GOLDEN_DIR
#error "DYNDISP_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace dyndisp {
namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

/// One pinned tuple: the fixture file plus everything needed to re-run it.
struct GoldenTuple {
  const char* file;
  const char* label;
  CommModel comm;
  bool neighborhood;
  AlgorithmFactory factory;
};

// One Table-I tuple per comm model, both on the same n=36/k=24
// random-adversary instance. The local tuple's
// per-round trace is empty BY CONTRACT -- local comm never broadcasts --
// so its fixture pins exactly that, plus the run totals.
const GoldenTuple kTuples[] = {
    {"packets_global_alg4_n36_k24.txt", "global+nbhd (Algorithm 4, memoized)",
     CommModel::kGlobal, true, core::dispersion_factory_memoized()},
    {"packets_local_dfs_n36_k24.txt", "local-only (DFS dispersion)",
     CommModel::kLocal, false, baselines::dfs_dispersion_factory()},
};

/// Runs the tuple with the observer recording and renders the trace: one
/// "round R packets P bits B digest X" line per executed global-comm round
/// and a final "total ..." line covering the whole run.
std::string render_trace(const GoldenTuple& t) {
  const std::size_t n = 36, k = 24;
  RandomAdversary adv(n, n / 3, 7);
  std::ostringstream os;
  EngineOptions opt;
  opt.comm = t.comm;
  opt.neighborhood_knowledge = t.neighborhood;
  opt.max_rounds = 200;
  opt.on_round = [&os](const RoundSnapshot& s) {
    if (!s.packets) return;  // local communication broadcasts nothing
    os << "round " << s.round << " packets " << s.packets.size() << " bits "
       << s.packet_bits << " digest " << hex64(packet_set_digest(s.packets))
       << '\n';
  };
  Engine engine(adv, placement::rooted(n, k), t.factory, opt);
  const RunResult res = engine.run();
  os << "total rounds " << res.rounds << " packets " << res.packets_sent
     << " bits " << res.packet_bits_sent << " run-digest "
     << hex64(check::digest_run(res)) << '\n';
  return os.str();
}

std::string fixture_path(const GoldenTuple& t) {
  return std::string(DYNDISP_GOLDEN_DIR) + "/" + t.file;
}

/// Fixture body with comment lines stripped (the header documents the
/// tuple for humans; the trace is what is pinned).
std::string read_fixture(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden fixture " << path
                         << " (regenerate with DYNDISP_REGEN_GOLDEN=1)";
  std::ostringstream body;
  std::string line;
  while (std::getline(in, line))
    if (line.empty() || line[0] != '#') body << line << '\n';
  return body.str();
}

/// Line-by-line comparison so a drift names the first diverging round.
void expect_trace_equal(const std::string& expected, const std::string& got,
                        const std::string& what) {
  SCOPED_TRACE(what);
  std::istringstream a(expected), b(got);
  std::string la, lb;
  std::size_t lineno = 0;
  while (true) {
    const bool ha = static_cast<bool>(std::getline(a, la));
    const bool hb = static_cast<bool>(std::getline(b, lb));
    ++lineno;
    if (!ha && !hb) break;
    ASSERT_EQ(ha, hb) << "trace length differs at line " << lineno
                      << " (fixture vs run)";
    ASSERT_EQ(la, lb) << "wire-format drift at line " << lineno;
  }
}

bool regen_requested() {
  const char* env = std::getenv("DYNDISP_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// The fixtures were recorded while two broadcast backends had to agree on
// them (hence the name); the one remaining PacketArena backend must still
// reproduce them byte for byte.
TEST(PacketGolden, TracesMatchFixturesOnBothBackends) {
  for (const GoldenTuple& t : kTuples) {
    const std::string trace = render_trace(t);

    if (regen_requested()) {
      std::ofstream out(fixture_path(t));
      ASSERT_TRUE(out.good()) << "cannot write " << fixture_path(t);
      out << "# golden packet trace: " << t.label << '\n'
          << "# tuple: n=36 k=24 rooted placement, RandomAdversary(36, 12, "
             "seed 7), max_rounds=200\n"
          << "# format: one line per executed global-comm round, then run "
             "totals\n"
          << "# regenerate: DYNDISP_REGEN_GOLDEN=1 ./test_packet_golden\n"
          << trace;
      continue;
    }
    const std::string fixture = read_fixture(fixture_path(t));
    if (fixture.empty()) continue;  // read_fixture already failed the test
    expect_trace_equal(fixture, trace, std::string(t.label) + " vs fixture");
  }
}

TEST(PacketGolden, LocalCommNeverBroadcasts) {
  // The local fixture's empty per-round section is a real pin: if the
  // engine ever starts assembling broadcasts for local comm, this fails
  // before the fixture diff does.
  const std::string trace = render_trace(kTuples[1]);
  // The whole trace is the totals line: no per-round broadcast ever fired.
  EXPECT_EQ(trace.rfind("total rounds ", 0), 0u) << trace;
  EXPECT_NE(trace.find(" packets 0 bits 0 "), std::string::npos) << trace;
}

}  // namespace
}  // namespace dyndisp
