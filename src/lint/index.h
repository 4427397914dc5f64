// A lightweight whole-tree symbol index for the call-graph contract rules
// (rules_hotpath.cpp), built on the lint tokenizer. Not a compiler: it
// recognizes function DEFINITIONS (identifier + balanced parameter list +
// body, with ctor-init-lists, trailing return types, and out-of-line
// qualified names handled), the call sites inside each body, and structs
// tagged DYNDISP_STATS (util/contract.h). Calls are resolved by unqualified
// name and by kind: a plain call reaches every same-named definition, a
// `.`/`->` call only same-named member functions, and a `.` call on a
// receiver every declaration of which in the indexed set has a
// `std::`-qualified type reaches nothing (library members such as
// std::atomic::load are not indexed). Still deliberately over-approximate:
// a contract analyzer must not miss a real edge, so a definition is a
// member unless it sits directly in a namespace (or is qualified by one),
// a receiver with any other, `auto` or unreadable declaration reaches
// every same-named member, and a spurious edge at worst asks for one
// reviewed suppression or DYNDISP_COLD boundary.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/source_file.h"

namespace dyndisp::lint {

/// One call site inside a function body.
struct CallSite {
  std::string callee;         ///< Unqualified called name.
  int line = 0;
  bool member_access = false;  ///< Preceded by `.` or `->`.
  bool arrow = false;          ///< Preceded by `->` (the pointee's member).
  std::string receiver;        ///< Identifier before the `.`/`->`, if any.
};

/// One function definition (a body was seen, not just a declaration).
struct FunctionDef {
  std::string name;       ///< Unqualified name.
  std::string qualified;  ///< `Class::name` for out-of-line members.
  /// A member function: defined in a class body, or out of line under a
  /// qualifier that is not only a namespace name.
  bool member = false;
  std::size_t file = 0;   ///< Index into SymbolIndex::files.
  int line = 0;
  bool hot = false;   ///< Annotated DYNDISP_HOT.
  bool cold = false;  ///< Annotated DYNDISP_COLD (stops propagation).
  std::size_t body_begin = 0;  ///< Token range of the body, exclusive of
  std::size_t body_end = 0;    ///< the braces: [body_begin, body_end).
  std::vector<CallSite> calls;
};

/// One struct tagged DYNDISP_STATS, with its field names.
struct StatsStruct {
  std::string name;
  std::size_t file = 0;
  int line = 0;
  std::vector<std::string> fields;
};

/// The index over one set of files (pointers must outlive the index).
struct SymbolIndex {
  std::vector<const SourceFile*> files;
  std::vector<FunctionDef> defs;
  std::vector<StatsStruct> stats;
  /// Unqualified name -> indices into defs (ascending; deterministic).
  std::map<std::string, std::vector<std::size_t>> by_name;
  /// Names every declaration of which has a `std::`-qualified type: `.`
  /// calls on them resolve to no indexed definition.
  std::set<std::string> std_typed;
};

/// Indexes `files` (every entry must stay alive while the index is used).
SymbolIndex build_index(const std::vector<const SourceFile*>& files);

/// One function's hot-path status after transitive closure.
struct HotReach {
  bool reachable = false;
  /// Human-readable chain from the hot root to this def, e.g.
  /// "fill_view -> count" ("" for the roots themselves).
  std::string path;
};

/// BFS from every DYNDISP_HOT def along call edges, stopping at
/// DYNDISP_COLD boundaries. Returns one entry per index.defs element.
std::vector<HotReach> hot_reachability(const SymbolIndex& index);

}  // namespace dyndisp::lint
