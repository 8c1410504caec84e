// Unit tests for nfvsb-lint: the per-file rules, the scanner and
// suppressions (fixture snippets fed through lint_source() with virtual
// paths), the SARIF writer, and run() over temporary trees (both passes,
// exit codes). The architecture pass itself is covered by arch_test.cpp.
//
// The banned tokens below live inside string literals: the linter's own
// scanner blanks literals, so scanning this file stays clean.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nfvsb-lint/arch.h"
#include "nfvsb-lint/lint.h"
#include "nfvsb-lint/sarif.h"

namespace {

using nfvsb::lint::Diagnostic;
using nfvsb::lint::lint_source;
using nfvsb::lint::to_sarif;
using Diags = std::vector<Diagnostic>;

std::vector<std::string> rules_of(const Diags& r) {
  std::vector<std::string> out;
  out.reserve(r.size());
  for (const Diagnostic& d : r) out.push_back(d.rule);
  return out;
}

// The quoted value after each occurrence of `key` in a SARIF log, in order.
std::vector<std::string> sarif_values(const std::string& sarif,
                                      const std::string& key) {
  const std::string open = "\"" + key + "\": ";
  std::vector<std::string> out;
  for (std::size_t p = sarif.find(open); p != std::string::npos;
       p = sarif.find(open, p + 1)) {
    std::size_t b = p + open.size();
    if (sarif[b] == '"') ++b;
    out.push_back(sarif.substr(b, sarif.find_first_of("\",}", b) - b));
  }
  return out;
}

const std::vector<std::string> kRuleIds = {
    "wall-clock", "entropy",    "unordered-iter",     "ordered-sum",
    "arch-layer", "arch-cycle", "arch-banned-header", "arch-transitive-include"};

// --- rule catalogue ---------------------------------------------------------

TEST(LintRules, CatalogueIsStable) {
  EXPECT_EQ(sarif_values(to_sarif({}, ""), "id"), kRuleIds);
}

// --- wall-clock -------------------------------------------------------------

TEST(LintWallClock, FlagsChronoClocks) {
  const Diags r = lint_source("src/core/x.cpp", R"(
    auto t0 = std::chrono::steady_clock::now();
  )");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].rule, "wall-clock");
  EXPECT_EQ(r[0].line, 2);
}

TEST(LintWallClock, FlagsBareTimeCallButNotMembers) {
  const Diags r = lint_source("src/core/x.cpp", R"(
    auto t = time(nullptr);      // flagged
    auto u = fired.time;         // member: clean
    auto v = ev->time(0);        // member call: clean
  )");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].line, 2);
}

TEST(LintWallClock, SuppressedBySameLineAllow) {
  const Diags r = lint_source(
      "bench/x.cpp",
      "auto t0 = std::chrono::steady_clock::now();"
      "  // nfvsb-lint: allow(wall-clock)\n");
  EXPECT_TRUE(r.empty());
}

TEST(LintWallClock, TokenInsideStringOrCommentIsClean) {
  const Diags r = lint_source("src/core/x.cpp", R"(
    // steady_clock would break determinism, hence this rule.
    const char* doc = "uses steady_clock internally";
  )");
  EXPECT_TRUE(r.empty());
}

// --- entropy ----------------------------------------------------------------

TEST(LintEntropy, FlagsRandomDeviceAndRand) {
  const Diags r = lint_source("src/traffic/x.cpp", R"(
    std::random_device rd;
    int x = rand();
  )");
  EXPECT_EQ(rules_of(r), (std::vector<std::string>{"entropy", "entropy"}));
}

TEST(LintEntropy, CoreRngIsTheDocumentedEscapeHatch) {
  const Diags r = lint_source("src/core/rng.cpp", R"(
    std::random_device rd;  // seed plumbing lives here
  )");
  EXPECT_TRUE(r.empty());
}

TEST(LintEntropy, SuppressedByPrecedingLineAllow) {
  const Diags r = lint_source("src/traffic/x.cpp", R"(
    // nfvsb-lint: allow(entropy)
    std::random_device rd;
  )");
  EXPECT_TRUE(r.empty());
}

// --- unordered-iter ---------------------------------------------------------

TEST(LintUnorderedIter, FlagsRangeForOverUnorderedMember) {
  const Diags r = lint_source("src/switches/x.cpp", R"(
    std::unordered_map<int, int> flows_;
    void dump() {
      for (const auto& [k, v] : flows_) { use(k, v); }
    }
  )");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].rule, "unordered-iter");
  EXPECT_EQ(r[0].line, 4);
}

TEST(LintUnorderedIter, SortedVectorIterationIsClean) {
  const Diags r = lint_source("src/switches/x.cpp", R"(
    std::unordered_map<int, int> flows_;
    void dump() {
      std::vector<int> keys = sorted_keys(flows_);
      for (int k : keys) { use(k, flows_.at(k)); }
    }
  )");
  EXPECT_TRUE(r.empty());
}

TEST(LintUnorderedIter, StatsSinkAndNonSrcAreOutOfScope) {
  const std::string snippet = R"(
    std::unordered_set<int> seen_;
    void f() { for (int s : seen_) { use(s); } }
  )";
  EXPECT_TRUE(lint_source("src/stats/x.h", snippet).empty());
  EXPECT_TRUE(lint_source("tests/x.cpp", snippet).empty());
}

TEST(LintUnorderedIter, SuppressedByAllow) {
  const Diags r = lint_source("src/switches/x.cpp", R"(
    std::unordered_map<int, int> flows_;
    void dump() {
      // nfvsb-lint: allow(unordered-iter)
      for (const auto& [k, v] : flows_) { use(k, v); }
    }
  )");
  EXPECT_TRUE(r.empty());
}

// --- ordered-sum ------------------------------------------------------------

TEST(LintOrderedSum, FlagsDoubleAccumulationInLoop) {
  const Diags r = lint_source("src/stats/x.h", R"(
    double total = 0.0;
    for (double v : values) {
      total += v;
    }
  )");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].rule, "ordered-sum");
  EXPECT_EQ(r[0].line, 4);
}

TEST(LintOrderedSum, OrderedSumNoteSilences) {
  const Diags r = lint_source("src/stats/x.h", R"(
    double total = 0.0;
    for (double v : values) {
      // nfvsb-lint: ordered-sum — values is index-ordered
      total += v;
    }
  )");
  EXPECT_TRUE(r.empty());
}

TEST(LintOrderedSum, IntegerAccumulationAndNonLoopAreClean) {
  const Diags r = lint_source("src/stats/x.h", R"(
    std::uint64_t count = 0;
    double total = 0.0;
    for (double v : values) { count += 1; }
    total += finalize();  // not in a loop
  )");
  EXPECT_TRUE(r.empty());
}

// --- raw string literals ----------------------------------------------------
// Regression tests for the raw-string lexer (referenced from scan.cpp).
// Snippets are assembled from ordinary strings because a raw literal cannot
// nest the same delimiter.

TEST(LintRawString, BannedTokenInsideRawLiteralIsClean) {
  const std::string snippet =
      "const char* doc = R\"(std::random_device rd;)\";\n";
  EXPECT_TRUE(lint_source("src/traffic/x.cpp", snippet).empty());
}

TEST(LintRawString, EncodingPrefixesOpenRawLiterals) {
  // uR, u8R, UR, LR are all raw-literal prefixes; their payloads must be
  // blanked just like a plain R"(...)" payload.
  const std::string snippet =
      "auto a = uR\"(rand())\";\n"
      "auto b = u8R\"(rand())\";\n"
      "auto c = UR\"(rand())\";\n"
      "auto d = LR\"(rand())\";\n";
  EXPECT_TRUE(lint_source("src/traffic/x.cpp", snippet).empty());
}

TEST(LintRawString, IdentifierEndingInRIsNotARawPrefix) {
  // FLOUR"..." is the identifier FLOUR followed by an ordinary string. A
  // lexer that misreads it as a raw literal hunts for a ")...\"" terminator
  // that never comes and blanks the rest of the file — masking the
  // std::random_device on the next line.
  const std::string snippet =
      "auto a = FLOUR\"text\";\n"
      "std::random_device rd;\n";
  const Diags r = lint_source("src/traffic/x.cpp", snippet);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].rule, "entropy");
  EXPECT_EQ(r[0].line, 2);
}

TEST(LintRawString, DelimitedRawLiteralClosesOnItsOwnDelimiter) {
  // The payload contains a bare )" which must NOT terminate a delimited
  // raw string; scanning resumes after )x" and still sees the banned call.
  const std::string snippet =
      "auto a = R\"x(quote )\" inside)x\";\n"
      "int y = rand();\n";
  const Diags r = lint_source("src/traffic/x.cpp", snippet);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].rule, "entropy");
  EXPECT_EQ(r[0].line, 2);
}

// --- scanner, suppressions and path scopes --------------------------------

TEST(LintScan, BlockCommentsKeepLineNumbers) {
  const Diags r = lint_source("src/traffic/x.cpp",
                              "/* steady_clock\n"
                              "   rand() */\n"
                              "std::random_device rd;\n");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].rule, "entropy");
  EXPECT_EQ(r[0].line, 3);
}

TEST(LintScan, DigitSeparatorIsNotACharLiteral) {
  // Read as a char literal, 1'000 would blank the code up to the next quote
  // and hide the call on line 2.
  const Diags r = lint_source("src/traffic/x.cpp",
                              "int n = 1'000;\n"
                              "std::random_device rd;\n");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].line, 2);
}

TEST(LintSuppress, OneAllowNamesSeveralRules) {
  const Diags r = lint_source(
      "src/traffic/x.cpp",
      "// nfvsb-lint: allow(wall-clock, entropy)\n"
      "auto t = std::chrono::steady_clock::now(); std::random_device rd;\n");
  EXPECT_TRUE(r.empty());
}

TEST(LintSuppress, AllowCoversItsRuleOnItsOwnAndTheNextLineOnly) {
  const Diags r = lint_source("src/traffic/x.cpp",
                              "// nfvsb-lint: allow(entropy)\n"
                              "\n"
                              "std::random_device a;\n"
                              "// nfvsb-lint: allow(wall-clock)\n"
                              "std::random_device b;\n");
  EXPECT_EQ(rules_of(r), (std::vector<std::string>{"entropy", "entropy"}));
}

TEST(LintScope, AbsolutePathsClassifyByTheLastMarker) {
  const std::string iter =
      "std::unordered_set<int> seen_;\n"
      "void f() { for (int s : seen_) { use(s); } }\n";
  // A checkout under some src/ or tests/ directory scopes by its own tree.
  EXPECT_EQ(rules_of(lint_source("/home/u/tests/repo/src/switches/x.cpp",
                                 iter)),
            std::vector<std::string>{"unordered-iter"});
  EXPECT_TRUE(lint_source("/home/u/src/repo/tests/x.cpp", iter).empty());
  EXPECT_TRUE(lint_source("/home/u/src/repo/src/stats/x.h", iter).empty());
  EXPECT_TRUE(lint_source("/home/u/tests/repo/src/core/rng.cpp",
                          "std::random_device rd;\n")
                  .empty());
}

// --- SARIF ------------------------------------------------------------------

TEST(LintSarif, EachResultIndexesItsOwnRule) {
  // One finding of each rule, raised by the engines themselves, so an id
  // an engine emits but the catalogue lacks fails here.
  const std::vector<std::pair<std::string, std::string>> per_file = {
      {"src/core/a.cpp", "auto t = std::chrono::steady_clock::now();\n"},
      {"src/traffic/b.cpp", "std::random_device rd;\n"},
      {"src/switches/c.cpp",
       "std::unordered_map<int, int> m;\n"
       "void f() { for (auto& kv : m) { use(kv); } }\n"},
      {"src/stats/d.h",
       "double t = 0;\nvoid f() { for (double v : vs) { t += v; } }\n"},
  };
  Diags diags;
  for (const auto& [path, code] : per_file) {
    for (Diagnostic& d : lint_source(path, code)) diags.push_back(d);
  }
  nfvsb::lint::Manifest m;
  std::string err;
  ASSERT_TRUE(nfvsb::lint::parse_manifest(
      "layer core\nlayer obs\nban core : iostream\n"
      "symbol Simulator core/simulator.h\n",
      m, err))
      << err;
  for (Diagnostic& d : nfvsb::lint::analyze_architecture(
           {{"src/core/simulator.h", "class Simulator;\n"},
            {"src/core/up.h", "#include \"obs/a.h\"\n"},
            {"src/core/io.h", "#include <iostream>\n"},
            {"src/obs/a.h", "#include \"obs/b.h\"\n"},
            {"src/obs/b.h",
             "#include \"obs/a.h\"\n#include \"core/simulator.h\"\n"},
            {"src/obs/leaky.cpp",
             "#include \"obs/b.h\"\nvoid f(Simulator& s);\n"}},
           m)) {
    diags.push_back(d);
  }
  const std::vector<std::string> emitted = rules_of(diags);
  ASSERT_EQ(std::set<std::string>(emitted.begin(), emitted.end()),
            std::set<std::string>(kRuleIds.begin(), kRuleIds.end()));

  const std::string sarif = to_sarif(diags, "");
  const std::vector<std::string> catalogue = sarif_values(sarif, "id");
  const std::vector<std::string> ids = sarif_values(sarif, "ruleId");
  const std::vector<std::string> idx = sarif_values(sarif, "ruleIndex");
  ASSERT_EQ(ids, emitted);
  ASSERT_EQ(idx.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(catalogue.at(std::stoul(idx[i])), ids[i]) << "result " << i;
  }
}

TEST(LintSarif, UrisAreRepoRelative) {
  const Diags diags = {
      {"/work/repo/src/core/a.cpp", 3, "entropy", "m"},
      {"./src/core/b.cpp", 0, "entropy", "m"},
      {"src\\core\\c.cpp", 1, "entropy", "m"},
      {"/elsewhere/d.cpp", 1, "entropy", "m"},
  };
  const std::vector<std::string> want = {"src/core/a.cpp", "src/core/b.cpp",
                                         "src/core/c.cpp", "/elsewhere/d.cpp"};
  EXPECT_EQ(sarif_values(to_sarif(diags, "/work/repo"), "uri"), want);
  EXPECT_EQ(sarif_values(to_sarif(diags, "/work/repo/"), "uri"), want);
  // Lines are 1-based: a diagnostic without one points at line 1.
  EXPECT_EQ(sarif_values(to_sarif(diags, "/work/repo"), "startLine"),
            (std::vector<std::string>{"3", "1", "1", "1"}));
}

TEST(LintSarif, EscapesQuotesBackslashesAndControlCharacters) {
  const std::string sarif = to_sarif(
      {{"src/q\"uote.h", 1, "arch-layer",
        std::string("say \"hi\" to C:\\dir\n\tnext\r") + '\x01'}},
      "");
  EXPECT_NE(sarif.find(R"("text": "say \"hi\" to C:\\dir\n\tnext\r\u0001")"),
            std::string::npos)
      << sarif;
  EXPECT_NE(sarif.find(R"("uri": "src/q\"uote.h")"), std::string::npos);
}

// --- process-level run() ----------------------------------------------------

class LintRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-case directory: ctest runs sibling cases concurrently, and a
    // shared path makes TearDown delete another case's files mid-run.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::path(::testing::TempDir()) /
           (std::string("nfvsb_lint_run_") + info->name());
    std::filesystem::remove_all(dir_);
    write("tools/nfvsb-lint/layers.def", "layer core\nlayer obs\n");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void write(const std::string& rel, const std::string& content) {
    const std::filesystem::path p = dir_ / rel;
    std::filesystem::create_directories(p.parent_path());
    std::ofstream(p) << content;
  }

  int run(std::vector<Diagnostic>* collect = nullptr) {
    out_.str("");
    return nfvsb::lint::run(dir_.string(), out_, collect);
  }

  std::filesystem::path dir_;
  std::ostringstream out_;
};

TEST_F(LintRunTest, CleanTreeExitsZero) {
  write("src/core/a.cpp", "int answer() { return 42; }\n");
  EXPECT_EQ(run(), 0);
  EXPECT_NE(out_.str().find("nfvsb-lint: 1 files, 0 finding(s)"),
            std::string::npos)
      << out_.str();
}

TEST_F(LintRunTest, FindingsExitOneWithFileLineRule) {
  write("src/core/bad.cpp", "auto r = std::random_device{}();\n");
  EXPECT_EQ(run(), 1);
  // Repo-relative, first line of the report.
  EXPECT_EQ(out_.str().rfind("src/core/bad.cpp:1: [entropy]", 0), 0u)
      << out_.str();
}

TEST_F(LintRunTest, BothPassesReportInOneRun) {
  write("src/core/bad.cpp",
        "#include \"obs/o.h\"\n"
        "auto r = std::random_device{}();\n");
  write("src/obs/o.h", "");
  std::vector<Diagnostic> collected;
  EXPECT_EQ(run(&collected), 1);
  EXPECT_EQ(rules_of(collected),
            (std::vector<std::string>{"entropy", "arch-layer"}));
  const std::string out = out_.str();
  const std::size_t entropy = out.find("src/core/bad.cpp:2: [entropy]");
  const std::size_t layer = out.find("src/core/bad.cpp:1: [arch-layer]");
  ASSERT_NE(entropy, std::string::npos) << out;
  ASSERT_NE(layer, std::string::npos) << out;
  EXPECT_LT(entropy, layer);  // per-file findings come first
  EXPECT_NE(out.find("nfvsb-lint: 2 files, 2 finding(s)"), std::string::npos)
      << out;
}

TEST_F(LintRunTest, OnlySourcesUnderTheFourTopDirectoriesAreScanned) {
  write("bench/b.cpp", "int main() { return 0; }\n");
  write("src/core/notes.txt", "std::random_device rd;\n");
  write("examples/e.cpp", "std::random_device rd;\n");
  EXPECT_EQ(run(), 0);
  EXPECT_NE(out_.str().find("nfvsb-lint: 1 files, 0 finding(s)"),
            std::string::npos)
      << out_.str();
}

TEST_F(LintRunTest, MissingManifestExitsTwo) {
  write("src/core/bad.cpp", "auto r = std::random_device{}();\n");
  std::filesystem::remove(dir_ / "tools" / "nfvsb-lint" / "layers.def");
  std::vector<Diagnostic> collected;
  EXPECT_EQ(run(&collected), 2);
  EXPECT_NE(out_.str().find("cannot read manifest"), std::string::npos);
  EXPECT_TRUE(collected.empty());
}

TEST_F(LintRunTest, MalformedManifestExitsTwo) {
  write("tools/nfvsb-lint/layers.def", "layer core\nallow a b\n");
  EXPECT_EQ(run(), 2);
  EXPECT_NE(out_.str().find("line 2"), std::string::npos) << out_.str();
}

}  // namespace
