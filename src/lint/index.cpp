#include "lint/index.h"

#include <cstddef>
#include <deque>
#include <map>
#include <set>
#include <string>

namespace dyndisp::lint {
namespace {

/// Keywords (and keyword-like macros) that can precede a `(` without being
/// a function name -- excluded from both definition and call detection.
bool is_keyword(const std::string& t) {
  static const char* const kWords[] = {
      "if",       "for",      "while",    "switch",   "catch",
      "return",   "sizeof",   "alignof",  "alignas",  "decltype",
      "noexcept", "static_assert",        "new",      "delete",
      "throw",    "else",     "do",       "operator", "constexpr",
      "const",    "case",     "default",  "using",    "typedef",
      "template", "typename", "requires", "static",   "inline",
      "virtual",  "explicit", "friend",   "struct",   "class",
      "enum",     "namespace","union",    "goto",     "assert",
      "co_await", "co_yield", "co_return"};
  for (const char* w : kWords)
    if (t == w) return true;
  return false;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

/// Index just past the `)` matching the `(` at `open`, or 0 on failure.
std::size_t skip_balanced_parens(const std::vector<Token>& toks,
                                 std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], "(")) ++depth;
    else if (is_punct(toks[i], ")")) {
      if (--depth == 0) return i + 1;
    }
  }
  return 0;
}

/// Index just past the `}` matching the `{` at `open`, or toks.size().
std::size_t skip_balanced_braces(const std::vector<Token>& toks,
                                 std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], "{")) ++depth;
    else if (is_punct(toks[i], "}")) {
      if (--depth == 0) return i + 1;
    }
  }
  return toks.size();
}

/// True when the token before `i` is a member-access operator (`.` or the
/// two-token `->`); fills `receiver` with the identifier in front of it and
/// `arrow` with which operator it was.
bool member_access_before(const std::vector<Token>& toks, std::size_t i,
                          std::string* receiver, bool* arrow = nullptr) {
  std::size_t obj = 0;
  if (i >= 1 && is_punct(toks[i - 1], ".")) {
    obj = i - 1;
  } else if (i >= 2 && is_punct(toks[i - 1], ">") && is_punct(toks[i - 2], "-")) {
    obj = i - 2;
  } else {
    return false;
  }
  if (arrow) *arrow = obj == i - 2;
  if (receiver) {
    receiver->clear();
    if (obj >= 1 && toks[obj - 1].kind == TokenKind::kIdentifier)
      *receiver = toks[obj - 1].text;
  }
  return true;
}

/// Starting from an identifier at `i` followed by `(`, decides whether this
/// is a function definition; on success returns the index of the body's
/// opening `{`, else 0. Handles cv/ref qualifiers, noexcept(...), override/
/// final, function-try-blocks, ctor initializer lists (member init braces
/// are skipped, the body brace follows a `)` or `}`), and trailing return
/// types.
std::size_t find_body_open(const std::vector<Token>& toks, std::size_t i) {
  const std::size_t after_params = skip_balanced_parens(toks, i + 1);
  if (after_params == 0) return 0;
  std::size_t k = after_params;
  while (k < toks.size()) {
    const Token& t = toks[k];
    if (is_ident(t, "const") || is_ident(t, "override") ||
        is_ident(t, "final") || is_ident(t, "try") || is_punct(t, "&")) {
      ++k;
      continue;
    }
    if (is_ident(t, "noexcept")) {
      ++k;
      if (k < toks.size() && is_punct(toks[k], "(")) {
        k = skip_balanced_parens(toks, k);
        if (k == 0) return 0;
      }
      continue;
    }
    if (is_punct(t, "-") && k + 1 < toks.size() && is_punct(toks[k + 1], ">")) {
      // Trailing return type: scan to the body brace or a declaration end.
      std::size_t j = k + 2;
      while (j < toks.size()) {
        if (is_punct(toks[j], "(")) {
          j = skip_balanced_parens(toks, j);
          if (j == 0) return 0;
          continue;
        }
        if (is_punct(toks[j], "{")) return j;
        if (is_punct(toks[j], ";") || is_punct(toks[j], "=")) return 0;
        ++j;
      }
      return 0;
    }
    if (is_punct(t, ":")) {
      // Constructor initializer list: member-init braces follow an
      // identifier or `>`; the body brace follows a `)` or `}`.
      std::size_t j = k + 1;
      while (j < toks.size()) {
        if (is_punct(toks[j], "(")) {
          j = skip_balanced_parens(toks, j);
          if (j == 0) return 0;
          continue;
        }
        if (is_punct(toks[j], "{")) {
          if (j >= 1 && (toks[j - 1].kind == TokenKind::kIdentifier ||
                         is_punct(toks[j - 1], ">"))) {
            j = skip_balanced_braces(toks, j);
            continue;
          }
          return j;
        }
        if (is_punct(toks[j], ";")) return 0;
        ++j;
      }
      return 0;
    }
    if (is_punct(t, "{")) return k;
    return 0;  // `;`, `=` (decl, = default/delete/0), or anything else.
  }
  return 0;
}

/// True when the `{` at `open` opens a namespace (`namespace a::b {`,
/// `namespace {`) or a linkage block (`extern "C" {`): a function defined
/// directly inside is a free function. Every other brace a definition can
/// sit in at this level is a class body.
bool opens_namespace(const std::vector<Token>& toks, std::size_t open) {
  std::size_t p = open;
  while (p > 0 && (is_punct(toks[p - 1], "::") ||
                   (toks[p - 1].kind == TokenKind::kIdentifier &&
                    toks[p - 1].text != "namespace")))
    --p;
  if (p > 0 && is_ident(toks[p - 1], "namespace")) return true;
  return p == open && p >= 2 && toks[p - 1].kind == TokenKind::kString &&
         is_ident(toks[p - 2], "extern");
}

/// How the declarations of one name spell their type.
struct DeclKinds {
  bool std_type = false;  ///< Some declaration has a `std::`-qualified type.
  bool other = false;     ///< Some declaration has any other type, or one
                          ///< the scan cannot read.
};

/// If the identifier at `i` is declared there (a type, then the name, then
/// a declarator end), records whether its type is `std::`-qualified.
/// Pattern-based, like the rest of the index; a declaration it can read
/// only in part (`auto`, a structured binding, a lambda init-capture, a
/// parenthesised initialiser such as `Pool pool(3)`, which looks like a
/// function declaration) records an unknown type, so the name is never
/// treated as std-typed.
void note_declaration(const std::vector<Token>& toks, std::size_t i,
                      std::map<std::string, DeclKinds>& kinds) {
  const Token& t = toks[i];
  if (is_punct(t, "[")) {
    // `auto [a, b]`, `auto& [a, b]`, `const auto& [a, b]`.
    std::size_t p = i;
    while (p > 0 && is_punct(toks[p - 1], "&")) --p;
    if (p == 0 || !is_ident(toks[p - 1], "auto")) return;
    for (std::size_t j = i + 1; j < toks.size() && !is_punct(toks[j], "]"); ++j)
      if (toks[j].kind == TokenKind::kIdentifier)
        kinds[toks[j].text].other = true;
    return;
  }
  if (t.kind != TokenKind::kIdentifier || is_keyword(t.text)) return;
  if (i + 1 >= toks.size()) return;
  const Token& next = toks[i + 1];
  if (next.kind != TokenKind::kPunct) return;
  if (next.text == "=" && i >= 1 &&
      (is_punct(toks[i - 1], "[") ||
       (i >= 2 && is_punct(toks[i - 1], "&") && is_punct(toks[i - 2], "[")))) {
    kinds[t.text].other = true;  // `[name = ...]`, `[&name = ...]`
    return;
  }
  static const char* const kEnds[] = {";", "=", "{", ",", ")", "[", ":", "("};
  bool ends = false;
  for (const char* e : kEnds) ends = ends || next.text == e;
  if (!ends) return;
  std::size_t p = i;
  while (p > 0 && (is_punct(toks[p - 1], "&") || is_punct(toks[p - 1], "*") ||
                   is_ident(toks[p - 1], "const")))
    --p;
  if (p == 0) return;
  std::size_t head = p - 1;
  if (is_punct(toks[head], ">")) {
    // A template argument list; `->` and comparisons are no type, and no
    // argument list spans a statement or a brace.
    if (head >= 1 && is_punct(toks[head - 1], "-")) return;
    int depth = 0;
    std::size_t q = head;
    for (;; --q) {
      if (is_punct(toks[q], ";") || is_punct(toks[q], "{") ||
          is_punct(toks[q], "}"))
        return;
      if (is_punct(toks[q], ">")) ++depth;
      else if (is_punct(toks[q], "<") && --depth == 0) break;
      if (q == 0) return;
    }
    if (q == 0) return;
    head = q - 1;
  }
  if (toks[head].kind != TokenKind::kIdentifier || is_keyword(toks[head].text))
    return;
  std::size_t first = head;
  while (first >= 2 && is_punct(toks[first - 1], "::") &&
         toks[first - 2].kind == TokenKind::kIdentifier)
    first -= 2;
  DeclKinds& k = kinds[t.text];
  if (next.text != "(" && first < head && toks[first].text == "std")
    k.std_type = true;
  else
    k.other = true;
}

/// Extracts the call sites inside [begin, end) into `def`.
void collect_calls(const std::vector<Token>& toks, std::size_t begin,
                   std::size_t end, FunctionDef& def) {
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier || is_keyword(t.text)) continue;
    if (i + 1 >= end || !is_punct(toks[i + 1], "(")) continue;
    CallSite call;
    call.callee = t.text;
    call.line = t.line;
    call.member_access =
        member_access_before(toks, i, &call.receiver, &call.arrow);
    def.calls.push_back(call);
  }
}

/// Side-scan of a DYNDISP_STATS struct: name from the head, field names
/// from the body (depth-1 identifiers followed by `=`, `;`, `{`, or `[`).
/// `kw` is the index of the `struct`/`class` keyword. Does not advance the
/// main walk -- methods inside the body still get indexed normally.
void collect_stats_struct(const std::vector<Token>& toks, std::size_t kw,
                          std::size_t file, std::vector<StatsStruct>& out) {
  StatsStruct s;
  s.file = file;
  s.line = toks[kw].line;
  std::size_t body = 0;
  bool tagged = false;
  for (std::size_t i = kw + 1; i < toks.size(); ++i) {
    if (is_punct(toks[i], ";") || is_punct(toks[i], "(")) return;
    if (is_punct(toks[i], "{")) {
      body = i;
      break;
    }
    if (toks[i].kind == TokenKind::kIdentifier) {
      if (toks[i].text == "DYNDISP_STATS") tagged = true;
      else if (s.name.empty() && toks[i].text != "final") s.name = toks[i].text;
    }
  }
  if (!tagged || body == 0 || s.name.empty()) return;
  int depth = 0;
  for (std::size_t i = body; i < toks.size(); ++i) {
    if (is_punct(toks[i], "{")) { ++depth; continue; }
    if (is_punct(toks[i], "}")) {
      if (--depth == 0) break;
      continue;
    }
    if (depth != 1) continue;
    if (toks[i].kind != TokenKind::kIdentifier || is_keyword(toks[i].text))
      continue;
    if (i + 1 >= toks.size()) break;
    if (is_punct(toks[i + 1], "=") || is_punct(toks[i + 1], ";") ||
        is_punct(toks[i + 1], "[")) {
      s.fields.push_back(toks[i].text);
    }
  }
  out.push_back(s);
}

}  // namespace

SymbolIndex build_index(const std::vector<const SourceFile*>& files) {
  SymbolIndex index;
  index.files = files;
  std::map<std::string, DeclKinds> decls;
  // Names declared as namespaces, and names declared as classes anywhere.
  std::set<std::string> namespaces, classes;
  for (std::size_t f = 0; f < files.size(); ++f) {
    const std::vector<Token>& toks = files[f]->tokens();
    for (std::size_t i = 0; i < toks.size(); ++i) {
      note_declaration(toks, i, decls);
      if (i + 1 >= toks.size() || toks[i + 1].kind != TokenKind::kIdentifier)
        continue;
      if (is_ident(toks[i], "namespace")) {
        // `namespace a::b::c`
        for (std::size_t j = i + 1;
             j < toks.size() && toks[j].kind == TokenKind::kIdentifier;
             j += 2) {
          namespaces.insert(toks[j].text);
          if (j + 1 >= toks.size() || !is_punct(toks[j + 1], "::")) break;
        }
      } else if (is_ident(toks[i], "struct") || is_ident(toks[i], "class") ||
                 is_ident(toks[i], "union")) {
        classes.insert(toks[i + 1].text);
      }
    }
    bool pending_hot = false;
    bool pending_cold = false;
    // Per open brace: whether it opens a namespace (else a class body).
    std::vector<bool> scopes;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "{") {
          scopes.push_back(opens_namespace(toks, i));
        } else if (t.text == "}" && !scopes.empty()) {
          scopes.pop_back();
        }
        if (t.text == ";" || t.text == "{" || t.text == "}")
          pending_hot = pending_cold = false;
        continue;
      }
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "DYNDISP_HOT") { pending_hot = true; continue; }
      if (t.text == "DYNDISP_COLD") { pending_cold = true; continue; }
      if (t.text == "struct" || t.text == "class") {
        collect_stats_struct(toks, i, f, index.stats);
        continue;
      }
      if (is_keyword(t.text)) continue;
      if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) continue;
      if (member_access_before(toks, i, nullptr)) continue;
      const std::size_t body_open = find_body_open(toks, i);
      if (body_open == 0) continue;
      FunctionDef def;
      def.name = t.text;
      def.qualified = t.text;
      for (std::size_t p = i; p >= 2 && is_punct(toks[p - 1], "::") &&
                              toks[p - 2].kind == TokenKind::kIdentifier;
           p -= 2) {
        def.qualified = toks[p - 2].text + "::" + def.qualified;
      }
      def.member = !scopes.empty() && !scopes.back();
      def.file = f;
      def.line = t.line;
      def.hot = pending_hot;
      def.cold = pending_cold;
      pending_hot = pending_cold = false;
      const std::size_t body_close = skip_balanced_braces(toks, body_open);
      def.body_begin = body_open + 1;
      def.body_end = body_close == 0 ? toks.size() : body_close - 1;
      collect_calls(toks, def.body_begin, def.body_end, def);
      index.by_name[def.name].push_back(index.defs.size());
      index.defs.push_back(def);
      i = def.body_end;  // Bodies are consumed wholesale (lambdas and
                         // local types attribute to the enclosing def).
    }
  }
  // An out-of-line definition is a member unless its innermost qualifier
  // names only a namespace.
  for (FunctionDef& def : index.defs) {
    if (def.member) continue;
    const std::size_t last = def.qualified.rfind("::");
    if (last == std::string::npos) continue;
    const std::size_t before =
        last == 0 ? std::string::npos : def.qualified.rfind("::", last - 1);
    const std::size_t from = before == std::string::npos ? 0 : before + 2;
    const std::string qualifier = def.qualified.substr(from, last - from);
    def.member = namespaces.count(qualifier) == 0 ||
                 classes.count(qualifier) != 0;
  }
  for (const auto& [name, kinds] : decls)
    if (kinds.std_type && !kinds.other) index.std_typed.insert(name);
  return index;
}

std::vector<HotReach> hot_reachability(const SymbolIndex& index) {
  std::vector<HotReach> reach(index.defs.size());
  std::deque<std::size_t> queue;
  for (std::size_t d = 0; d < index.defs.size(); ++d) {
    if (index.defs[d].hot) {
      reach[d].reachable = true;
      queue.push_back(d);
    }
  }
  while (!queue.empty()) {
    const std::size_t d = queue.front();
    queue.pop_front();
    const std::string& base =
        reach[d].path.empty() ? index.defs[d].qualified : reach[d].path;
    for (const CallSite& call : index.defs[d].calls) {
      // A `.` call on a std-typed receiver reaches library code only (`->`
      // on a smart pointer or iterator reaches the pointee's members).
      if (call.member_access && !call.arrow &&
          index.std_typed.count(call.receiver) != 0)
        continue;
      const auto it = index.by_name.find(call.callee);
      if (it == index.by_name.end()) continue;
      for (const std::size_t target : it->second) {
        if (reach[target].reachable || index.defs[target].cold) continue;
        // A `.`/`->` call never reaches a free function.
        if (call.member_access && !index.defs[target].member) continue;
        reach[target].reachable = true;
        reach[target].path = base + " -> " + index.defs[target].qualified;
        queue.push_back(target);
      }
    }
  }
  return reach;
}

}  // namespace dyndisp::lint
