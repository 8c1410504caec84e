// nfvsb-lint CLI. See lint.h for the per-file rules, arch.h for the
// whole-program architecture pass, and DESIGN.md §8/§10 for policy.
//
//   nfvsb-lint [--root=<dir>] [--sarif=<file>]
//
// Runs both passes over <root>/{src,tools,bench,tests} (root defaults to
// the current directory) against <root>/tools/nfvsb-lint/layers.def.
// --sarif writes every finding from both passes as SARIF 2.1.0.
//
// Exit codes: 0 clean, 1 findings, 2 bad invocation or I/O error.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "nfvsb-lint/lint.h"
#include "nfvsb-lint/sarif.h"

int main(int argc, char** argv) {
  static constexpr const char* kUsage =
      "usage: nfvsb-lint [--root=<dir>] [--sarif=<file>]\n";
  std::string root = ".";
  std::string sarif_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(8);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else {
      std::cerr << "nfvsb-lint: unexpected argument " << arg << "\n"
                << kUsage;
      return 2;
    }
  }

  std::vector<nfvsb::lint::Diagnostic> all;
  const int rc = nfvsb::lint::run(root, std::cout, &all);
  if (!sarif_path.empty() && rc != 2) {
    std::ofstream sf(sarif_path, std::ios::trunc);
    if (!sf) {
      std::cerr << "nfvsb-lint: cannot write " << sarif_path << "\n";
      return 2;
    }
    sf << nfvsb::lint::to_sarif(all, root);
  }
  return rc;
}
