#include "lint/selfcheck.h"

#include <string>
#include <vector>

#include "lint/driver.h"
#include "lint/registry.h"

namespace dyndisp::lint {

namespace {

struct Planted {
  const char* rule;
  const char* path;  ///< Fake path (some rules are path-sensitive).
  const char* source;
};

// One planted violation per rule. Paths are fake but shaped like the real
// tree so path-sensitive rules (bench/ allowlist) see production inputs.
const Planted kViolations[] = {
    {"determinism-random", "src/fake/random.cpp",
     "#include <cstdlib>\n"
     "int draw() { return std::rand(); }\n"},
    {"determinism-random", "src/fake/device.cpp",
     "#include <random>\n"
     "unsigned seed() { std::random_device rd; return rd(); }\n"},
    {"determinism-wallclock", "src/fake/clock.cpp",
     "#include <chrono>\n"
     "double stamp() {\n"
     "  return std::chrono::system_clock::now().time_since_epoch().count();\n"
     "}\n"},
    {"determinism-wallclock", "src/fake/ctime.cpp",
     "#include <ctime>\n"
     "long stamp() { return time(nullptr); }\n"},
    {"determinism-unordered-iter", "src/fake/iter.cpp",
     "#include <string>\n#include <unordered_map>\n"
     "int sum(const std::unordered_map<std::string, int>& m) {\n"
     "  int total = 0;\n"
     "  for (const auto& [k, v] : m) total += v;\n"
     "  return total;\n"
     "}\n"},
    {"metering-serialize-fields", "src/fake/robot.h",
     "#include \"util/bits.h\"\n"
     "class FakeRobot {\n"
     " public:\n"
     "  void serialize(dyndisp::BitWriter& out) const {\n"
     "    out.write(id_, 8);\n"
     "  }\n"
     " private:\n"
     "  unsigned id_ = 0;\n"
     "  unsigned hoarded_ = 0;\n"  // carried but never metered
     "};\n"},
    {"suppression-contract", "src/fake/bare.cpp",
     "#include <cstdlib>\n"
     "// NOLINT-dyndisp(determinism-random)\n"
     "int draw() { return std::rand(); }\n"},
    {"hotpath-alloc", "src/fake/hot_alloc.cpp",
     "#include <memory>\n"
     "#include \"util/contract.h\"\n"
     "int helper() { auto boxed = std::make_unique<int>(3); return *boxed; }\n"
     "DYNDISP_HOT int round_tick() { return helper(); }\n"},
    // Resolution by kind still reaches members: a `.` call on a class-typed
    // receiver, and a `->` call through a std smart pointer to its pointee.
    {"hotpath-alloc", "src/fake/hot_member.cpp",
     "#include <memory>\n"
     "#include \"util/contract.h\"\n"
     "struct Pool { int grow(); };\n"
     "int Pool::grow() { auto p = std::make_unique<int>(2); return *p; }\n"
     "DYNDISP_HOT int round_tick(Pool& pool) { return pool.grow(); }\n"},
    {"hotpath-alloc", "src/fake/hot_pointee.cpp",
     "#include <memory>\n"
     "#include \"util/contract.h\"\n"
     "struct Pool { int grow(); };\n"
     "int Pool::grow() { auto p = std::make_unique<int>(2); return *p; }\n"
     "DYNDISP_HOT int round_tick(std::unique_ptr<Pool>& pool) {\n"
     "  return pool->grow();\n"
     "}\n"},
    // A parenthesised local (`Pool pool(3)`) is no std-typed receiver, even
    // beside a std-typed namesake elsewhere.
    {"hotpath-alloc", "src/fake/hot_paren_local.cpp",
     "#include <memory>\n"
     "#include <vector>\n"
     "#include \"util/contract.h\"\n"
     "struct Pool { explicit Pool(int n); int grow(); };\n"
     "int Pool::grow() { auto p = std::make_unique<int>(2); return *p; }\n"
     "struct Shelf { std::vector<int> pool; };\n"
     "DYNDISP_HOT int round_tick() { Pool pool(3); return pool.grow(); }\n"},
    {"hotpath-blocking", "src/fake/hot_block.cpp",
     "#include <mutex>\n"
     "#include \"util/contract.h\"\n"
     "int guarded(std::mutex& mu) {\n"
     "  std::lock_guard<std::mutex> lock(mu);\n"
     "  return 1;\n"
     "}\n"
     "DYNDISP_HOT int round_tick(std::mutex& mu) { return guarded(mu); }\n"},
    {"digest-exclusion", "src/fake/stats_digest.cpp",
     "#include <cstdint>\n"
     "#include \"util/contract.h\"\n"
     "struct DYNDISP_STATS FakeStats { std::uint64_t reuses = 0; };\n"
     "struct FakeResult { std::uint64_t rounds = 0; FakeStats stats; };\n"
     "std::uint64_t digest_run(const FakeResult& r) {\n"
     "  return r.rounds ^ r.stats.reuses;\n"
     "}\n"},
};

// Clean snippets: production-shaped code that must stay silent.
const Planted kClean[] = {
    {"determinism-random", "src/fake/rng_ok.cpp",
     "#include \"util/rng.h\"\n"
     "int draw(dyndisp::Rng& rng) { return static_cast<int>(rng.below(6)); }\n"},
    {"determinism-wallclock", "bench/fake_timer.cpp",
     "#include <chrono>\n"
     "double ms() {\n"
     "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
     "}\n"},
    {"determinism-unordered-iter", "src/fake/member_ok.cpp",
     "#include <string>\n#include <unordered_set>\n"
     "bool seen(const std::unordered_set<std::string>& done,\n"
     "          const std::string& id) {\n"
     "  return done.count(id) != 0;\n"  // membership only: order-free
     "}\n"},
    {"metering-serialize-fields", "src/fake/robot_ok.h",
     "#include \"util/bits.h\"\n"
     "class FakeRobot {\n"
     " public:\n"
     "  void serialize(dyndisp::BitWriter& out) const {\n"
     "    out.write(id_, 8);\n"
     "  }\n"
     " private:\n"
     "  unsigned id_ = 0;\n"
     "  unsigned k_ = 0;  // NOLINT-dyndisp(metering-serialize-fields): "
     "model parameter, not between-round state\n"
     "};\n"},
    // A DYNDISP_COLD boundary makes the allocating slow path invisible to
    // the transitive closure: the reviewed cold annotation IS the fix.
    {"hotpath-alloc", "src/fake/hot_alloc_ok.cpp",
     "#include <memory>\n"
     "#include \"util/contract.h\"\n"
     "DYNDISP_COLD int rebuild() {\n"
     "  auto fresh = std::make_unique<int>(3);\n"
     "  return *fresh;\n"
     "}\n"
     "DYNDISP_HOT int round_tick(bool miss) { return miss ? rebuild() : 0; }\n"},
    // Member calls resolve by kind: `ticks.load()` on a std::atomic reaches
    // no indexed `load`, and `c.build()` reaches Counter::build, never the
    // same-named free function. Both namesakes allocate.
    {"hotpath-alloc", "src/fake/hot_member_ok.cpp",
     "#include <atomic>\n"
     "#include <memory>\n"
     "#include \"util/contract.h\"\n"
     "struct Loader { int load(); };\n"
     "int Loader::load() { auto p = std::make_unique<int>(1); return *p; }\n"
     "int build(int x) { auto p = std::make_unique<int>(x); return *p; }\n"
     "struct Counter {\n"
     "  std::atomic<int> ticks{0};\n"
     "  int build() const { return ticks.load(); }\n"
     "};\n"
     "DYNDISP_HOT int round_tick(Counter& c) {\n"
     "  return c.ticks.load() + c.build();\n"
     "}\n"},
    {"hotpath-blocking", "src/fake/hot_block_ok.cpp",
     "#include <cstdio>\n"
     "#include \"util/contract.h\"\n"
     "DYNDISP_COLD void report() { std::printf(\"cold path\\n\"); }\n"
     "DYNDISP_HOT int round_tick(bool fail) {\n"
     "  if (fail) report();\n"
     "  return 0;\n"
     "}\n"},
    // Digest reads only untagged result fields; the tagged struct sits in
    // the same record but never feeds the digest.
    {"digest-exclusion", "src/fake/stats_digest_ok.cpp",
     "#include <cstdint>\n"
     "#include \"util/contract.h\"\n"
     "struct DYNDISP_STATS FakeStats { std::uint64_t reuses = 0; };\n"
     "struct FakeResult { std::uint64_t rounds = 0; FakeStats stats; };\n"
     "std::uint64_t digest_run(const FakeResult& r) {\n"
     "  return r.rounds * 1099511628211ull;\n"
     "}\n"},
};

// The two sides of the suppression contract, exercised on a real rule.
const char* kSuppressedWithReason =
    "#include <cstdlib>\n"
    "// NOLINTNEXTLINE-dyndisp(determinism-random): fixture proving "
    "justified suppressions silence the finding\n"
    "int draw() { return std::rand(); }\n";
const char* kSuppressedWithoutReason =
    "#include <cstdlib>\n"
    "int draw() { return std::rand(); }  // NOLINT-dyndisp(determinism-random)\n";

bool has_rule(const LintReport& report, const std::string& rule) {
  for (const Diagnostic& d : report.diagnostics)
    if (d.rule == rule) return true;
  return false;
}

LintReport lint_snippet(const char* path, const char* source) {
  const std::vector<SourceFile> files = {
      SourceFile::from_string(path, source)};
  return lint_files(files, {});
}

}  // namespace

SelfCheckResult run_self_check() {
  SelfCheckResult result;
  auto fail = [&](const std::string& what) {
    result.ok = false;
    result.detail += "FAIL: " + what + "\n";
  };

  for (const Planted& planted : kViolations) {
    const LintReport report = lint_snippet(planted.path, planted.source);
    if (!has_rule(report, planted.rule))
      fail(std::string(planted.rule) + " missed its planted violation in " +
           planted.path);
    else
      result.detail += std::string("ok: ") + planted.rule +
                       " caught planted violation\n";
  }

  for (const Planted& clean : kClean) {
    const LintReport report = lint_snippet(clean.path, clean.source);
    if (has_rule(report, clean.rule))
      fail(std::string(clean.rule) + " false-positived on clean snippet " +
           clean.path);
    else
      result.detail += std::string("ok: ") + clean.rule +
                       " silent on clean snippet\n";
  }

  {
    const LintReport report =
        lint_snippet("src/fake/justified.cpp", kSuppressedWithReason);
    if (has_rule(report, "determinism-random") || report.suppressed == 0)
      fail("a justified suppression did not silence the finding");
    else
      result.detail += "ok: justified suppression silences the finding\n";
  }
  {
    const LintReport report =
        lint_snippet("src/fake/bare.cpp", kSuppressedWithoutReason);
    if (!has_rule(report, "determinism-random") ||
        !has_rule(report, "suppression-contract"))
      fail("a bare suppression must both fail to suppress and be reported");
    else
      result.detail +=
          "ok: bare suppression suppresses nothing and is reported\n";
  }

  // Every registered rule must have at least one planted violation above:
  // a rule nobody can prove fires is a rule CI cannot trust.
  for (const std::string& name : LintRegistry::instance().names()) {
    bool covered = name == "hygiene-include-cycle";  // needs 2 files; below
    for (const Planted& planted : kViolations)
      if (name == planted.rule) covered = true;
    if (!covered) fail("rule '" + name + "' has no planted self-test");
  }

  // Include cycle needs two files, so it gets its own stanza.
  {
    const std::vector<SourceFile> files = {
        SourceFile::from_string("src/fake/a.h", "#include \"fake/b.h\"\n"),
        SourceFile::from_string("src/fake/b.h", "#include \"fake/a.h\"\n"),
    };
    const LintReport report = lint_files(files, {});
    if (!has_rule(report, "hygiene-include-cycle"))
      fail("hygiene-include-cycle missed a two-file cycle");
    else
      result.detail += "ok: hygiene-include-cycle caught planted cycle\n";
  }

  return result;
}

}  // namespace dyndisp::lint
