// nfvsb-lint pass 2: whole-program architecture analyzer.
//
// Pass 1 (lint.h) guards determinism file by file; this pass guards the
// *structure* that keeps the guarantees scalable: it extracts the #include
// graph across src/, tools/, bench/ and tests/, checks it against the layer
// manifest in tools/nfvsb-lint/layers.def, and reports:
//
//   arch-layer       an include that climbs the layer order (e.g. pkt/
//                    including obs/) or targets an undeclared directory.
//                    Rank-mates (directories sharing one `layer` line) may
//                    include each other; `allow A -> B` manifest lines
//                    permit individual justified upward edges.
//   arch-cycle       a strongly connected component in the include graph
//                    (self-includes included); the diagnostic carries one
//                    full cycle path. Cycles are never suppressible.
//   arch-banned-header
//                    a data-path layer including a header from its ban
//                    list (<iostream>, <chrono>, <random>, <regex>,
//                    <unordered_map>, <unordered_set>); tests/ and bench/
//                    are exempt.
//   arch-transitive-include
//                    IWYU-lite: a src/ file that names a symbol from the
//                    manifest's `symbol` map without directly including
//                    its header (forward-declaring the symbol counts as
//                    declaring intent and is accepted).
//
// The analyzer proper (analyze_architecture) is a pure function over
// (paths, contents, manifest) so tests can feed it synthetic trees;
// lint.h's run() walks the tree, loads the manifest and runs it after the
// per-file rules.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "nfvsb-lint/lint.h"

namespace nfvsb::lint {

/// One #include directive found in live code (not a comment, string
/// literal, or `#if 0` block).
struct Include {
  std::string target;  // text between the delimiters, e.g. "pkt/packet.h"
  bool angle{false};
  int line{0};  // 1-based
};

/// Extract the include directives of one translation unit. Directives
/// inside comments, string literals and `#if 0 ... #endif/#else` regions
/// are not returned; other preprocessor conditionals are treated as live
/// (the analyzer over-approximates the graph rather than evaluating
/// expressions).
[[nodiscard]] std::vector<Include> extract_includes(
    const std::string& content);

/// Parsed layers.def.
struct Manifest {
  /// Layer ranks bottom-up: ranks[0] is the lowest. Directories on the
  /// same rank form one layer group and may include each other.
  std::vector<std::vector<std::string>> ranks;
  /// Extra permitted (from, to) layer edges (`allow from -> to`).
  std::set<std::pair<std::string, std::string>> allow;
  /// layer -> banned include targets (`ban <layers...> : <headers...>`).
  std::map<std::string, std::set<std::string>> bans;
  /// IWYU-lite: unqualified symbol -> repo-relative defining header
  /// (`symbol <name> <header>`), in declaration order.
  std::vector<std::pair<std::string, std::string>> symbols;

  /// Rank index of `layer`, or -1 when undeclared.
  [[nodiscard]] int rank_of(const std::string& layer) const;
};

/// Parse layers.def text. On malformed input returns false and sets
/// `error` to a "line N: reason" message.
bool parse_manifest(const std::string& text, Manifest& m, std::string& error);

/// A file handed to the analyzer: repo-relative path (forward slashes,
/// e.g. "src/pkt/packet.h") plus content.
struct SourceFile {
  std::string repo_path;
  std::string content;
};

/// The whole-program pass. Diagnostics are sorted (path, line, rule) and
/// deterministic for a given input set.
[[nodiscard]] std::vector<Diagnostic> analyze_architecture(
    const std::vector<SourceFile>& files, const Manifest& m);

}  // namespace nfvsb::lint
