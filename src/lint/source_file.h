// A lint-scanned source file: the token stream plus the parsed
// `NOLINT-dyndisp` suppression comments.
//
// The suppression contract (docs/STATIC_ANALYSIS.md):
//
//   // NOLINT-dyndisp(rule-name): why this hazard is intentional
//   // NOLINTNEXTLINE-dyndisp(rule-name): same, for the following line
//
// The justification after the colon is REQUIRED and must be non-empty; a
// bare `NOLINT-dyndisp(rule)` does not suppress anything and is itself
// reported by the suppression-contract rule. Multiple rules may share one
// comment: `NOLINT-dyndisp(rule-a, rule-b): reason`. A directive must be
// the comment's leading content -- mid-prose mentions (documentation) are
// ignored.
#pragma once

#include <string>
#include <vector>

#include "lint/token.h"

namespace dyndisp::lint {

/// One parsed suppression directive (one entry per rule named in it).
struct Suppression {
  std::string rule;
  std::string reason;
  int comment_line = 0;  ///< Line the comment starts on.
  /// Line whose diagnostics it suppresses: the comment's own line, or --
  /// for NOLINTNEXTLINE -- the line of the first code token after the
  /// comment (so a justification may wrap over several comment lines).
  int target_line = 0;
  bool next_line = false;  ///< NOLINTNEXTLINE form.
  bool well_formed = false;
  std::string error;  ///< Why it is malformed (when !well_formed).
};

class SourceFile {
 public:
  /// Reads and tokenizes `path`. Throws std::runtime_error on IO failure.
  static SourceFile load(const std::string& path);

  /// Builds from in-memory text (fixtures and tests).
  static SourceFile from_string(std::string path, const std::string& text);

  const std::string& path() const { return path_; }
  const TokenStream& stream() const { return stream_; }
  const std::vector<Token>& tokens() const { return stream_.tokens; }
  const std::vector<Suppression>& suppressions() const {
    return suppressions_;
  }

  /// True when a well-formed suppression for `rule` covers `line`.
  bool suppressed(const std::string& rule, int line) const;

  /// True when the path has `dir` as one of its directory components
  /// (e.g. in_dir("bench") for "bench/bench_table1.cpp").
  bool in_dir(const std::string& dir) const;

 private:
  std::string path_;
  TokenStream stream_;
  std::vector<Suppression> suppressions_;
};

/// Parses every NOLINT-dyndisp directive out of `comments` (exposed for the
/// suppression-contract rule's self-tests).
std::vector<Suppression> parse_suppressions(
    const std::vector<CommentText>& comments);

}  // namespace dyndisp::lint
