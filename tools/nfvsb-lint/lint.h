// nfvsb-lint — project-specific determinism linter.
//
// The repository's strongest invariant is that every campaign point is a
// pure function of (campaign seed, point index): bit-identical JSON across
// thread counts, runs, and machines. PRs 1–2 guarantee that by convention
// (splitmix64 seed derivation, schedule-sequence event ordering) plus one
// golden test. This tool turns the convention into a mechanically enforced
// property: it scans the tree for the constructs that historically break
// bit-identical results — wall-clock reads, ambient entropy, iteration over
// unordered containers, hidden allocation on the event hot path, unordered
// floating-point accumulation — and fails the build when one appears
// outside the documented escape hatches.
//
// It is deliberately NOT a clang plugin: a dependency-free lexer-aware
// scanner keeps the tool buildable everywhere the simulator builds (the
// curated .clang-tidy config covers the general-purpose checks; this tool
// covers the project-specific ones no generic checker knows about).
//
// Rules (ids are stable; DESIGN.md §8 documents each):
//   wall-clock     std::chrono clocks / time() / gettimeofday outside
//                  wall-clock perf harnesses
//   entropy        rand()/srand()/std::random_device outside core/rng
//   unordered-iter range-for over std::unordered_{map,set} in
//                  result-affecting code (src/ outside stats sinks)
//   std-function   std::function in src/core, src/hw, src/switches
//                  (must use core::EventFn / core::SmallFn)
//   naked-new      naked new / malloc in data-plane directories
//   ordered-sum    `double +=` accumulation inside a loop in stats code
//                  without an explicit `// nfvsb-lint: ordered-sum` note
//   nodiscard      missing [[nodiscard]] on EventId/bool/count
//                  returning functions in src/core + src/hw headers
//                  (mechanically fixable with --fix)
//
// Suppression: a comment `// nfvsb-lint: allow(<rule>[, <rule>...])` on the
// finding's line or the line directly above it silences that rule there.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace nfvsb::lint {

struct Diagnostic {
  std::string file;
  int line{0};  // 1-based
  std::string rule;
  std::string message;
};

struct Options {
  /// Apply mechanical fixes (currently: [[nodiscard]] insertion) instead of
  /// reporting those findings.
  bool fix{false};
  /// When non-empty, only these rule ids run.
  std::vector<std::string> only_rules;
};

/// Result of linting one translation unit.
struct FileReport {
  std::vector<Diagnostic> diagnostics;
  /// Content after mechanical fixes; only set when Options::fix and at
  /// least one fix applied.
  std::string fixed_content;
  bool fixes_applied{false};
};

/// All known rule ids, in reporting order.
const std::vector<std::string>& rule_ids();

/// Lint one file's content. `path` decides which rules apply (scopes are
/// derived from the repo-relative directory: src/core, bench/, ...); it
/// does not need to exist on disk, which is how the unit tests feed
/// fixture snippets through the engine.
FileReport lint_source(const std::string& path, const std::string& content,
                       const Options& opts);

/// Lint files and directories (recursing into *.h / *.cpp). Diagnostics are
/// printed to `out` as `file:line: [rule] message`, sorted by path so output
/// is deterministic. With Options::fix, fixed files are rewritten in place.
/// When `collect` is non-null, every diagnostic is also appended to it (the
/// SARIF writer consumes the combined list across passes).
/// Returns the process exit code: 0 clean, 1 findings, 2 bad invocation/IO.
int run(const std::vector<std::string>& paths, const Options& opts,
        std::ostream& out, std::vector<Diagnostic>* collect = nullptr);

}  // namespace nfvsb::lint
