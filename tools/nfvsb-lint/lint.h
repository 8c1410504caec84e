// nfvsb-lint — project-specific determinism linter.
//
// The repository's strongest invariant is that every campaign point is a
// pure function of (campaign seed, point index): bit-identical JSON across
// thread counts, runs, and machines. Seed derivation (splitmix64) and
// schedule-sequence event ordering guarantee that by convention, and the
// goldens check it. This tool turns the convention into a mechanically
// enforced property: it scans the tree for the constructs that break
// bit-identical results — wall-clock reads, ambient entropy, iteration over
// unordered containers, unordered floating-point accumulation — and fails
// the build when one appears outside the documented escape hatches.
//
// It is deliberately NOT a clang plugin: a dependency-free lexer-aware
// scanner keeps the tool buildable everywhere the simulator builds (the
// curated .clang-tidy config covers the general-purpose checks; this tool
// covers the project-specific ones no generic checker knows about).
// Hot-path allocation is checked by behaviour instead (nfvsb_alloc_tests),
// and a discarded [[nodiscard]] result by the warnings-as-errors build.
//
// Per-file rules (ids are stable; DESIGN.md §8.1 documents each; the SARIF
// catalogue in sarif.cpp is the list of every id, arch rules included):
//   wall-clock     std::chrono clocks / time() / gettimeofday outside
//                  wall-clock perf harnesses
//   entropy        rand()/srand()/std::random_device outside core/rng
//   unordered-iter range-for over std::unordered_{map,set} in
//                  result-affecting code (src/ outside stats sinks)
//   ordered-sum    `double +=` accumulation inside a loop in stats code
//                  without an explicit `// nfvsb-lint: ordered-sum` note
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

/// Lint one file's content with the per-file rules, sorted by (line,
/// rule). `path` decides which rules apply (scopes are derived from the
/// last src/, bench/ or tests/ component: src/core, bench/, ...); it does
/// not need to exist on disk, which is how the unit tests feed fixture
/// snippets through the engine.
[[nodiscard]] std::vector<Diagnostic> lint_source(const std::string& path,
                                                  const std::string& content);

/// Run both passes over <root>/{src,tools,bench,tests} (*.h, *.hpp, *.cpp,
/// *.cc): the per-file rules, then the architecture pass (arch.h) against
/// <root>/tools/nfvsb-lint/layers.def. Diagnostics carry repo-relative
/// paths and are printed to `out` as `file:line: [rule] message`, sorted
/// by path, followed by a one-line summary. When `collect` is non-null,
/// every diagnostic is also appended to it (the SARIF writer consumes it).
/// Returns the process exit code: 0 clean, 1 findings, 2 unreadable or
/// malformed manifest, or an unreadable file.
int run(const std::string& root, std::ostream& out,
        std::vector<Diagnostic>* collect = nullptr);

}  // namespace nfvsb::lint
