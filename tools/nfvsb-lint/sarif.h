// SARIF 2.1.0 emitter for nfvsb-lint diagnostics.
//
// One run, one driver ("nfvsb-lint"), the full rule catalogue (the four
// per-file determinism rules and the four architecture rules; sarif.cpp
// holds the one list of rule ids) under tool.driver.rules, and one result
// per diagnostic with a physical location. Paths are emitted repo-relative
// so GitHub code scanning can annotate pull-request diffs
// (github/codeql-action/upload-sarif consumes the file — see
// .github/workflows/ci.yml).
#pragma once

#include <string>
#include <vector>

#include "nfvsb-lint/lint.h"

namespace nfvsb::lint {

/// Serialize `diags` as a SARIF 2.1.0 log. `root` is stripped from the
/// front of diagnostic file paths (with its trailing separator) so URIs
/// come out repo-relative; pass "" to leave paths untouched. Output is
/// deterministic: key order is fixed and results keep their input order.
[[nodiscard]] std::string to_sarif(const std::vector<Diagnostic>& diags,
                                   const std::string& root);

}  // namespace nfvsb::lint
