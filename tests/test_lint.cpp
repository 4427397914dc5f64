// Tests for the dyndisp_lint static-analysis pass (src/lint/): tokenizer,
// suppression contract, every rule's positive/negative fixtures (both
// embedded snippets and the on-disk tests/lint_fixtures/ files), the
// driver's tree walk, and the planted-violation self-check.
//
// The on-disk fixture directory is injected by CMake as
// DYNDISP_LINT_FIXTURES; the repo source root as DYNDISP_REPO_ROOT.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint/driver.h"
#include "lint/index.h"
#include "lint/registry.h"
#include "lint/selfcheck.h"
#include "lint/source_file.h"
#include "lint/token.h"

namespace dyndisp::lint {
namespace {

std::string fixtures_dir() { return DYNDISP_LINT_FIXTURES; }
std::string repo_root() { return DYNDISP_REPO_ROOT; }

LintReport lint_snippet(const std::string& path, const std::string& text,
                        const std::vector<std::string>& rules = {}) {
  std::vector<SourceFile> files;
  files.push_back(SourceFile::from_string(path, text));
  return lint_files(files, rules);
}

std::vector<std::string> rules_hit(const LintReport& report) {
  std::vector<std::string> rules;
  for (const Diagnostic& d : report.diagnostics) rules.push_back(d.rule);
  return rules;
}

bool hit(const LintReport& report, const std::string& rule) {
  const std::vector<std::string> rules = rules_hit(report);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

// ---------------------------------------------------------------- tokenizer

TEST(LintTokenizer, SplitsIdentifiersNumbersPuncts) {
  const TokenStream s = tokenize("int x_ = 42 + 0x1Fu;");
  ASSERT_EQ(s.tokens.size(), 7u);
  EXPECT_EQ(s.tokens[0].text, "int");
  EXPECT_EQ(s.tokens[1].text, "x_");
  EXPECT_EQ(s.tokens[2].text, "=");
  EXPECT_EQ(s.tokens[3].text, "42");
  EXPECT_EQ(s.tokens[3].kind, TokenKind::kNumber);
  EXPECT_EQ(s.tokens[4].text, "+");
  EXPECT_EQ(s.tokens[5].text, "0x1Fu");
  EXPECT_EQ(s.tokens[6].text, ";");
}

TEST(LintTokenizer, TracksLineNumbers) {
  const TokenStream s = tokenize("a\nb\n\nc\n");
  ASSERT_EQ(s.tokens.size(), 3u);
  EXPECT_EQ(s.tokens[0].line, 1);
  EXPECT_EQ(s.tokens[1].line, 2);
  EXPECT_EQ(s.tokens[2].line, 4);
}

TEST(LintTokenizer, CodeInsideCommentsIsNotCode) {
  const TokenStream s =
      tokenize("// std::rand() here\n/* rand() there\n rand() */\nint x;\n");
  for (const Token& t : s.tokens) EXPECT_NE(t.text, "rand");
  ASSERT_EQ(s.comments.size(), 2u);
  EXPECT_EQ(s.comments[0].line, 1);
  EXPECT_EQ(s.comments[1].line, 2);
}

TEST(LintTokenizer, CodeInsideStringLiteralsIsNotCode) {
  const TokenStream s =
      tokenize("const char* a = \"rand()\";\nconst char c = 'r';\n");
  for (const Token& t : s.tokens) {
    if (t.kind == TokenKind::kIdentifier) {
      EXPECT_NE(t.text, "rand");
    }
  }
}

TEST(LintTokenizer, RawStringsAreOpaque) {
  const TokenStream s =
      tokenize("const char* u = R\"(rand() \" unbalanced)\";\nint after;\n");
  for (const Token& t : s.tokens) {
    if (t.kind == TokenKind::kIdentifier) {
      EXPECT_NE(t.text, "rand");
    }
  }
  // The tokenizer recovered and still saw the code after the raw string.
  const std::vector<Token>& tokens = s.tokens;
  EXPECT_TRUE(std::any_of(tokens.begin(), tokens.end(), [](const Token& t) {
    return t.text == "after";
  }));
}

TEST(LintTokenizer, CapturesIncludeDirectives) {
  const TokenStream s = tokenize(
      "#include \"campaign/registry.h\"\n#include <vector>\n#define X 1\n");
  ASSERT_EQ(s.includes.size(), 2u);
  EXPECT_EQ(s.includes[0].path, "campaign/registry.h");
  EXPECT_FALSE(s.includes[0].angled);
  EXPECT_EQ(s.includes[1].path, "vector");
  EXPECT_TRUE(s.includes[1].angled);
}

TEST(LintTokenizer, ScopeResolutionIsOneToken) {
  const TokenStream s = tokenize("std::chrono::steady_clock::now()");
  std::size_t colons = 0;
  for (const Token& t : s.tokens)
    if (t.text == "::") ++colons;
  EXPECT_EQ(colons, 3u);
}

// ------------------------------------------------------------- suppressions

TEST(LintSuppression, ParsesJustifiedDirective) {
  const SourceFile f = SourceFile::from_string(
      "a.cpp", "int x = std::rand();  // NOLINT-dyndisp(determinism-random): "
               "seeded upstream\n");
  ASSERT_EQ(f.suppressions().size(), 1u);
  EXPECT_TRUE(f.suppressions()[0].well_formed);
  EXPECT_EQ(f.suppressions()[0].rule, "determinism-random");
  EXPECT_EQ(f.suppressions()[0].reason, "seeded upstream");
  EXPECT_TRUE(f.suppressed("determinism-random", 1));
}

TEST(LintSuppression, NextLineTargetsFirstCodeTokenAfterComment) {
  const SourceFile f = SourceFile::from_string(
      "a.cpp",
      "// NOLINTNEXTLINE-dyndisp(determinism-random): a justification\n"
      "// that wraps over two comment lines\n"
      "int x = std::rand();\n");
  ASSERT_EQ(f.suppressions().size(), 1u);
  EXPECT_EQ(f.suppressions()[0].target_line, 3);
  EXPECT_TRUE(f.suppressed("determinism-random", 3));
}

TEST(LintSuppression, MissingReasonIsMalformed) {
  const SourceFile f = SourceFile::from_string(
      "a.cpp", "int x = 1;  // NOLINT-dyndisp(determinism-random)\n");
  ASSERT_EQ(f.suppressions().size(), 1u);
  EXPECT_FALSE(f.suppressions()[0].well_formed);
  EXPECT_FALSE(f.suppressed("determinism-random", 1));
}

TEST(LintSuppression, MissingRuleListIsMalformed) {
  const SourceFile f = SourceFile::from_string(
      "a.cpp", "int x = 1;  // NOLINT-dyndisp: because\n");
  ASSERT_EQ(f.suppressions().size(), 1u);
  EXPECT_FALSE(f.suppressions()[0].well_formed);
}

TEST(LintSuppression, MultiRuleDirectiveCoversEachRule) {
  const SourceFile f = SourceFile::from_string(
      "a.cpp",
      "// NOLINTNEXTLINE-dyndisp(determinism-random, "
      "determinism-wallclock): fixture\n"
      "int x;\n");
  ASSERT_EQ(f.suppressions().size(), 2u);
  EXPECT_TRUE(f.suppressed("determinism-random", 2));
  EXPECT_TRUE(f.suppressed("determinism-wallclock", 2));
}

TEST(LintSuppression, ProseMentionsAreNotDirectives) {
  const SourceFile f = SourceFile::from_string(
      "a.cpp",
      "// Docs may mention that NOLINT-dyndisp(rule): reason is the "
      "syntax.\nint x;\n");
  EXPECT_TRUE(f.suppressions().empty());
}

// ------------------------------------------------------------------- rules

TEST(LintRuleRandom, FlagsBannedSourcesAndAcceptsRng) {
  EXPECT_TRUE(hit(lint_snippet("src/a.cpp",
                               "#include <cstdlib>\n"
                               "int f() { return std::rand(); }\n"),
                  "determinism-random"));
  EXPECT_TRUE(hit(lint_snippet("src/a.cpp",
                               "#include <random>\n"
                               "std::random_device rd;\n"),
                  "determinism-random"));
  EXPECT_FALSE(hit(lint_snippet("src/a.cpp",
                                "#include \"util/rng.h\"\n"
                                "int f(dyndisp::Rng& r) { "
                                "return static_cast<int>(r.below(6)); }\n"),
                   "determinism-random"));
  // A member merely NAMED rand is not a call of ::rand.
  EXPECT_FALSE(hit(lint_snippet("src/a.cpp", "struct S { int rand; };\n"),
                   "determinism-random"));
}

TEST(LintRuleWallclock, FlagsClockReadsOutsideBench) {
  const char* now_src =
      "#include <chrono>\n"
      "auto f() { return std::chrono::steady_clock::now(); }\n";
  EXPECT_TRUE(hit(lint_snippet("src/a.cpp", now_src),
                  "determinism-wallclock"));
  // The bench/ allowlist: same code, timer path.
  EXPECT_FALSE(hit(lint_snippet("bench/bench_a.cpp", now_src),
                   "determinism-wallclock"));
  EXPECT_TRUE(hit(lint_snippet("src/a.cpp",
                               "#include <ctime>\n"
                               "long f() { return time(nullptr); }\n"),
                  "determinism-wallclock"));
  // Member access spelled .time( / ->time( is not the C API.
  EXPECT_FALSE(hit(lint_snippet("src/a.cpp",
                                "double f(const R& r) { return r.time(); }\n"),
                   "determinism-wallclock"));
}

TEST(LintRuleUnorderedIter, FlagsIterationButNotMembership) {
  EXPECT_TRUE(hit(
      lint_snippet("src/a.cpp",
                   "#include <unordered_map>\n"
                   "int f(const std::unordered_map<int, int>& m) {\n"
                   "  int s = 0;\n"
                   "  for (const auto& [k, v] : m) s += v;\n"
                   "  return s;\n"
                   "}\n"),
      "determinism-unordered-iter"));
  EXPECT_TRUE(hit(lint_snippet("src/a.cpp",
                               "#include <unordered_set>\n"
                               "auto f(const std::unordered_set<int>& s) {\n"
                               "  return s.begin();\n"
                               "}\n"),
                  "determinism-unordered-iter"));
  EXPECT_FALSE(hit(lint_snippet("src/a.cpp",
                                "#include <unordered_set>\n"
                                "bool f(const std::unordered_set<int>& s) {\n"
                                "  return s.count(3) != 0;\n"
                                "}\n"),
                   "determinism-unordered-iter"));
  // Ordered containers iterate freely.
  EXPECT_FALSE(hit(lint_snippet("src/a.cpp",
                                "#include <map>\n"
                                "int f(const std::map<int, int>& m) {\n"
                                "  int s = 0;\n"
                                "  for (const auto& [k, v] : m) s += v;\n"
                                "  return s;\n"
                                "}\n"),
                   "determinism-unordered-iter"));
}

TEST(LintRuleMetering, FlagsUnserializedFieldAcrossHeaderAndImpl) {
  // Header declares; impl serializes only id_ -- k_ leaks past the meter.
  std::vector<SourceFile> files;
  files.push_back(SourceFile::from_string(
      "src/fake/robot.h",
      "class Robot {\n"
      " public:\n"
      "  void serialize(BitWriter& out) const;\n"
      " private:\n"
      "  unsigned id_ = 0;\n"
      "  unsigned k_ = 0;\n"
      "};\n"));
  files.push_back(SourceFile::from_string(
      "src/fake/robot.cpp",
      "#include \"fake/robot.h\"\n"
      "void Robot::serialize(BitWriter& out) const { out.write(id_, 8); }\n"));
  const LintReport report = lint_files(files, {});
  ASSERT_TRUE(hit(report, "metering-serialize-fields"));
  bool flagged_k = false;
  for (const Diagnostic& d : report.diagnostics)
    if (d.rule == "metering-serialize-fields")
      flagged_k = flagged_k || d.message.find("'k_'") != std::string::npos;
  EXPECT_TRUE(flagged_k);
}

TEST(LintRuleMetering, HeaderAloneWithoutImplMakesNoClaim) {
  const LintReport report =
      lint_snippet("src/fake/robot.h",
                   "class Robot {\n"
                   " public:\n"
                   "  void serialize(BitWriter& out) const;\n"
                   " private:\n"
                   "  unsigned id_ = 0;\n"
                   "};\n");
  EXPECT_FALSE(hit(report, "metering-serialize-fields"));
}

TEST(LintRuleMetering, ClassWithoutSerializeIsOutOfScope) {
  EXPECT_FALSE(hit(lint_snippet("src/a.h",
                                "class Config {\n"
                                " private:\n"
                                "  int knob_ = 0;\n"
                                "};\n"),
                   "metering-serialize-fields"));
}

TEST(LintRuleIncludeCycle, ReportsCycleOnce) {
  std::vector<SourceFile> files;
  files.push_back(
      SourceFile::from_string("src/x/a.h", "#include \"x/b.h\"\n"));
  files.push_back(
      SourceFile::from_string("src/x/b.h", "#include \"x/c.h\"\n"));
  files.push_back(
      SourceFile::from_string("src/x/c.h", "#include \"x/a.h\"\n"));
  const LintReport report = lint_files(files, {"hygiene-include-cycle"});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_NE(report.diagnostics[0].message.find("src/x/a.h"),
            std::string::npos);
  EXPECT_NE(report.diagnostics[0].message.find("src/x/c.h"),
            std::string::npos);
}

TEST(LintRuleIncludeCycle, AcyclicTreeIsClean) {
  std::vector<SourceFile> files;
  files.push_back(
      SourceFile::from_string("src/x/a.h", "#include \"x/b.h\"\n"));
  files.push_back(SourceFile::from_string("src/x/b.h", "int b;\n"));
  files.push_back(SourceFile::from_string(
      "src/x/c.cpp", "#include \"x/a.h\"\n#include \"x/b.h\"\n"));
  EXPECT_TRUE(lint_files(files, {"hygiene-include-cycle"}).clean());
}

TEST(LintRuleSuppressionContract, UnknownRuleNameIsReported) {
  const LintReport report = lint_snippet(
      "src/a.cpp",
      "// NOLINTNEXTLINE-dyndisp(no-such-rule): typo goes unnoticed\n"
      "int x;\n");
  EXPECT_TRUE(hit(report, "suppression-contract"));
}


// ----------------------------------------------------- hot-path contracts

TEST(LintRuleHotpathAlloc, FlagsTransitiveAllocationFromHotRoot) {
  EXPECT_TRUE(hit(lint_snippet("src/a.cpp",
                               "int* helper() { return new int(1); }\n"
                               "DYNDISP_HOT\n"
                               "int tick() { return *helper(); }\n"),
                  "hotpath-alloc"));
  // The same allocation with no hot root anywhere: out of scope.
  EXPECT_FALSE(hit(lint_snippet("src/a.cpp",
                                "int* helper() { return new int(1); }\n"
                                "int setup() { return *helper(); }\n"),
                   "hotpath-alloc"));
  // DYNDISP_COLD is a reachability boundary: a hot root may call into an
  // explicitly-cold slow path without dragging its allocations onto the
  // hot path.
  EXPECT_FALSE(hit(lint_snippet("src/a.cpp",
                                "DYNDISP_COLD\n"
                                "int* rebuild() { return new int(1); }\n"
                                "DYNDISP_HOT\n"
                                "int tick() { return *rebuild(); }\n"),
                   "hotpath-alloc"));
}

TEST(LintRuleHotpathAlloc, RetainedMemberGrowthIsExempt) {
  // Growth into a trailing-underscore member is the retained-buffer idiom
  // (amortized away in steady state, which the memprobe test pins); growth
  // into anything else on the hot path is a per-round allocation.
  EXPECT_FALSE(hit(lint_snippet("src/a.cpp",
                                "struct R {\n"
                                "  DYNDISP_HOT\n"
                                "  void tick(int x) { buf_.push_back(x); }\n"
                                "  std::vector<int> buf_;\n"
                                "};\n"),
                   "hotpath-alloc"));
  EXPECT_TRUE(hit(
      lint_snippet("src/a.cpp",
                   "DYNDISP_HOT\n"
                   "void tick(std::vector<int>& out) { out.push_back(1); }\n"),
      "hotpath-alloc"));
}

TEST(LintRuleHotpathBlocking, FlagsLocksAndIoTransitively) {
  EXPECT_TRUE(hit(lint_snippet("src/a.cpp",
                               "void log_it(int x) { std::printf(\"%d\", x); }\n"
                               "DYNDISP_HOT\n"
                               "void tick(int x) { log_it(x); }\n"),
                  "hotpath-blocking"));
  EXPECT_TRUE(hit(lint_snippet(
                      "src/a.cpp",
                      "void guarded() { std::lock_guard<std::mutex> l(mu); }\n"
                      "DYNDISP_HOT\n"
                      "void tick() { guarded(); }\n"),
                  "hotpath-blocking"));
  // An explicitly-cold reporting path may lock and print.
  EXPECT_FALSE(hit(lint_snippet("src/a.cpp",
                                "DYNDISP_COLD\n"
                                "void report(int x) { std::printf(\"%d\", x); }\n"
                                "DYNDISP_HOT\n"
                                "void tick() {}\n"),
                   "hotpath-blocking"));
}

TEST(LintRuleDigestExclusion, FlagsStatsFieldsInDigestCodeOnly) {
  const std::string tagged =
      "struct DYNDISP_STATS Stats { int reuses = 0; };\n"
      "struct Res { Stats stats; int rounds = 0; };\n";
  EXPECT_TRUE(hit(
      lint_snippet("src/a.cpp",
                   tagged +
                       "int result_digest(const Res& r) "
                       "{ return r.stats.reuses; }\n"),
      "digest-exclusion"));
  // The same field read outside digest/serialize code: observability is
  // exactly what the counters are FOR.
  EXPECT_FALSE(hit(lint_snippet("src/a.cpp",
                                tagged +
                                    "int report(const Res& r) "
                                    "{ return r.stats.reuses; }\n"),
                   "digest-exclusion"));
  // A digest over untagged fields: fine.
  EXPECT_FALSE(hit(lint_snippet("src/a.cpp",
                                tagged +
                                    "int result_digest(const Res& r) "
                                    "{ return r.rounds; }\n"),
                   "digest-exclusion"));
}

// ----------------------------------------------------------------- indexer

TEST(LintIndex, RawStringWithParenDoesNotFabricateCalls) {
  const SourceFile f = SourceFile::from_string(
      "src/a.cpp",
      "int parse() {\n"
      "  const char* re = R\"(evil( [a-z]+ x))\";\n"
      "  return helper(re);\n"
      "}\n");
  const SymbolIndex idx = build_index({&f});
  ASSERT_EQ(idx.defs.size(), 1u);
  EXPECT_EQ(idx.defs[0].qualified, "parse");
  // Exactly one call: 'evil(' lives inside the raw string and is opaque.
  ASSERT_EQ(idx.defs[0].calls.size(), 1u);
  EXPECT_EQ(idx.defs[0].calls[0].callee, "helper");
}

TEST(LintIndex, LineContinuationInsideCallExpression) {
  const SourceFile f = SourceFile::from_string("src/a.cpp",
                                               "int wrap() {\n"
                                               "  return helper(1, \\\n"
                                               "                2);\n"
                                               "}\n"
                                               "int after() { return 0; }\n");
  const SymbolIndex idx = build_index({&f});
  ASSERT_EQ(idx.defs.size(), 2u);
  EXPECT_EQ(idx.defs[0].qualified, "wrap");
  ASSERT_EQ(idx.defs[0].calls.size(), 1u);
  EXPECT_EQ(idx.defs[0].calls[0].callee, "helper");
  // The spliced call did not swallow the following definition.
  EXPECT_EQ(idx.defs[1].qualified, "after");
}

TEST(LintIndex, OutOfLineMemberDefGetsNestedQualifiedName) {
  const SourceFile f = SourceFile::from_string(
      "src/a.cpp", "void sim::core::Engine::tick() { helper(); }\n");
  const SymbolIndex idx = build_index({&f});
  ASSERT_EQ(idx.defs.size(), 1u);
  EXPECT_EQ(idx.defs[0].name, "tick");
  EXPECT_EQ(idx.defs[0].qualified, "sim::core::Engine::tick");
  ASSERT_EQ(idx.defs[0].calls.size(), 1u);
  EXPECT_EQ(idx.defs[0].calls[0].callee, "helper");
}

TEST(LintIndex, HotReachabilityStopsAtColdBoundaries) {
  const SourceFile f =
      SourceFile::from_string("src/a.cpp",
                              "void leaf() {}\n"
                              "DYNDISP_COLD\n"
                              "void rebuild() { leaf(); }\n"
                              "DYNDISP_HOT\n"
                              "void tick() { rebuild(); leaf(); }\n");
  const SymbolIndex idx = build_index({&f});
  ASSERT_EQ(idx.defs.size(), 3u);
  const std::vector<HotReach> reach = hot_reachability(idx);
  ASSERT_EQ(reach.size(), 3u);
  EXPECT_TRUE(reach[2].reachable);   // tick: the root itself
  EXPECT_FALSE(reach[1].reachable);  // rebuild: cold boundary
  EXPECT_TRUE(reach[0].reachable);   // leaf: called directly from tick
}

TEST(LintIndex, MemberCallsNeverReachFreeFunctions) {
  const SourceFile f = SourceFile::from_string(
      "src/a.cpp",
      "void append(int x) {}\n"
      "struct Log { void append(int x) {} };\n"
      "DYNDISP_HOT\n"
      "void tick(Log& log) { log.append(1); }\n");
  const SymbolIndex idx = build_index({&f});
  ASSERT_EQ(idx.defs.size(), 3u);
  EXPECT_FALSE(idx.defs[0].member);
  EXPECT_TRUE(idx.defs[1].member);
  const std::vector<HotReach> reach = hot_reachability(idx);
  EXPECT_FALSE(reach[0].reachable);  // the free append
  EXPECT_TRUE(reach[1].reachable);   // Log::append
}

TEST(LintIndex, StdTypedReceiversReachLibraryMembersOnly) {
  const SourceFile f = SourceFile::from_string(
      "src/a.cpp",
      "struct File { int load(); };\n"
      "int File::load() { return 0; }\n"
      "struct Slot { std::atomic<int> hot{0}; };\n"
      "DYNDISP_HOT\n"
      "int tick(Slot& s) { return s.hot.load(); }\n"
      "DYNDISP_HOT\n"
      "int deref(std::unique_ptr<File>& file) { return file->load(); }\n");
  const SymbolIndex idx = build_index({&f});
  ASSERT_EQ(idx.defs.size(), 3u);
  EXPECT_EQ(idx.defs[0].qualified, "File::load");
  EXPECT_TRUE(idx.defs[0].member);
  EXPECT_EQ(idx.std_typed.count("hot"), 1u);
  const std::vector<HotReach> reach = hot_reachability(idx);
  // Reached only through the smart pointer's pointee, never the atomic.
  ASSERT_TRUE(reach[0].reachable);
  EXPECT_EQ(reach[0].path, "deref -> File::load");
}

TEST(LintIndex, NamespaceQualifiedDefinitionsAreFree) {
  const SourceFile f = SourceFile::from_string(
      "src/a.cpp",
      "namespace io::text { void load(); }\n"
      "void io::text::load() {}\n"
      "namespace io { struct Reader { void load(); }; }\n"
      "void io::Reader::load() {}\n");
  const SymbolIndex idx = build_index({&f});
  ASSERT_EQ(idx.defs.size(), 2u);
  EXPECT_FALSE(idx.defs[0].member);  // io::text::load
  EXPECT_TRUE(idx.defs[1].member);   // io::Reader::load
}

// A name declared once with a std type and once as `Type name(args)` is not
// std-typed: the parenthesised local is read as an unknown type.
TEST(LintIndex, ParenthesisedDeclarationIsNeverStdTyped) {
  const SourceFile f = SourceFile::from_string(
      "src/a.cpp",
      "struct Pool { explicit Pool(int n); int grow(); };\n"
      "int Pool::grow() { return 1; }\n"
      "struct Shelf { std::vector<int> pool; };\n"
      "DYNDISP_HOT\n"
      "int tick() { Pool pool(3); return pool.grow(); }\n");
  const SymbolIndex idx = build_index({&f});
  EXPECT_EQ(idx.std_typed.count("pool"), 0u);
  const std::vector<HotReach> reach = hot_reachability(idx);
  ASSERT_EQ(idx.defs[0].qualified, "Pool::grow");
  EXPECT_TRUE(reach[0].reachable);
}

// ---------------------------------------------------------------- registry

TEST(LintRegistryTest, NamesAreSortedAndConstructible) {
  const std::vector<std::string> names = LintRegistry::instance().names();
  ASSERT_GE(names.size(), 6u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& name : names) {
    EXPECT_TRUE(LintRegistry::instance().has(name));
    EXPECT_EQ(LintRegistry::instance().make(name)->name(), name);
    EXPECT_FALSE(LintRegistry::instance().description(name).empty());
  }
}

TEST(LintRegistryTest, UnknownRuleThrowsNamingTheKey) {
  try {
    (void)LintRegistry::instance().make("no-such-rule");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-rule"), std::string::npos);
  }
}

// ---------------------------------------------------------------- fixtures

struct PlantedFixture {
  const char* file;
  const char* rule;
};

TEST(LintFixtures, EachPlantedFixtureIsCaughtByItsRule) {
  const PlantedFixture planted[] = {
      {"planted_random.cpp", "determinism-random"},
      {"planted_wallclock.cpp", "determinism-wallclock"},
      {"planted_unordered_iter.cpp", "determinism-unordered-iter"},
      {"planted_metering.h", "metering-serialize-fields"},
      {"planted_bare_suppression.cpp", "suppression-contract"},
      {"planted_hotpath_alloc.cpp", "hotpath-alloc"},
      {"planted_hotpath_blocking.cpp", "hotpath-blocking"},
      {"planted_digest_exclusion.cpp", "digest-exclusion"},
  };
  for (const PlantedFixture& p : planted) {
    LintOptions options;
    options.paths = {fixtures_dir() + "/" + p.file};
    const LintReport report = lint_paths(options);
    EXPECT_TRUE(hit(report, p.rule))
        << p.file << " was not caught by " << p.rule;
  }
}

TEST(LintFixtures, BareSuppressionDoesNotSuppress) {
  LintOptions options;
  options.paths = {fixtures_dir() + "/planted_bare_suppression.cpp"};
  const LintReport report = lint_paths(options);
  // The underlying finding survives AND the bare directive is reported.
  EXPECT_TRUE(hit(report, "determinism-random"));
  EXPECT_TRUE(hit(report, "suppression-contract"));
  EXPECT_EQ(report.suppressed, 0u);
}

TEST(LintFixtures, PlantedIncludeCycleIsCaught) {
  LintOptions options;
  options.paths = {fixtures_dir() + "/planted_cycle_a.h",
                   fixtures_dir() + "/planted_cycle_b.h"};
  EXPECT_TRUE(hit(lint_paths(options), "hygiene-include-cycle"));
}

TEST(LintFixtures, JustifiedSuppressionsPass) {
  LintOptions options;
  options.paths = {fixtures_dir() + "/suppressed_ok.cpp"};
  const LintReport report = lint_paths(options);
  EXPECT_TRUE(report.clean()) << "unexpected findings in suppressed_ok.cpp";
  EXPECT_GT(report.suppressed, 0u);
}

TEST(LintFixtures, CleanFixturePassesWithZeroSuppressions) {
  LintOptions options;
  options.paths = {fixtures_dir() + "/clean.cpp"};
  const LintReport report = lint_paths(options);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.suppressed, 0u);
}

// ------------------------------------------------------------------ driver

TEST(LintDriver, TreeWalkSkipsFixturesButExplicitRootsDoNot) {
  // Walking tests/ must not pick up the planted fixtures (they exist to
  // fail); naming the fixture dir as a root must.
  const std::vector<std::string> via_tree =
      collect_sources({repo_root() + "/tests"});
  for (const std::string& path : via_tree)
    EXPECT_EQ(path.find("lint_fixtures"), std::string::npos) << path;
  const std::vector<std::string> via_root =
      collect_sources({fixtures_dir()});
  EXPECT_GE(via_root.size(), 8u);
}

TEST(LintDriver, CollectIsSortedAndDeduplicated) {
  const std::vector<std::string> files =
      collect_sources({fixtures_dir(), fixtures_dir() + "/clean.cpp"});
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  EXPECT_EQ(std::adjacent_find(files.begin(), files.end()), files.end());
}

TEST(LintDriver, MissingPathThrows) {
  EXPECT_THROW((void)collect_sources({"no/such/path"}), std::runtime_error);
}

TEST(LintDriver, RepoTreeIsCleanUnderEveryRule) {
  // The acceptance gate, in-process: every rule over src + tests + tools.
  LintOptions options;
  options.paths = {repo_root() + "/src", repo_root() + "/tests",
                   repo_root() + "/tools"};
  const LintReport report = lint_paths(options);
  std::string detail;
  for (const Diagnostic& d : report.diagnostics)
    detail += d.file + ":" + std::to_string(d.line) + " [" + d.rule + "] " +
              d.message + "\n";
  EXPECT_TRUE(report.clean()) << detail;
  EXPECT_GT(report.files_scanned, 100u);
}

TEST(LintDriver, JustifiedSuppressionTotalIsPinned) {
  // The suppression audit, as a regression pin: every NOLINT-dyndisp
  // directive in the tree was reviewed when this number was set, so a new
  // suppression (or a rule change that re-fires one) must update this
  // count DELIBERATELY -- the diff review is the audit.
  LintOptions options;
  options.paths = {repo_root() + "/src", repo_root() + "/tests",
                   repo_root() + "/tools"};
  const LintReport report = lint_paths(options);
  EXPECT_EQ(report.suppressed, 20u)
      << "justified-suppression total changed; re-audit the directives and "
         "update the pin";
}

// -------------------------------------------------------------- self-check

TEST(LintSelfCheck, AllRulesProveTheirPlantedViolations) {
  const SelfCheckResult result = run_self_check();
  EXPECT_TRUE(result.ok) << result.detail;
}

}  // namespace
}  // namespace dyndisp::lint
