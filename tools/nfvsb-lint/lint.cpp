#include "nfvsb-lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_set>

#include "nfvsb-lint/arch.h"
#include "nfvsb-lint/scan.h"

namespace nfvsb::lint {
namespace {

// --- path scopes ------------------------------------------------------------

struct Scope {
  bool src{false};
  std::string subdir;  // first component under src/ ("core", "hw", ...)
  std::string stem;    // file name
};

Scope classify(const std::string& path) {
  Scope s;
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  std::vector<std::string> comps;
  std::stringstream ss(p);
  for (std::string c; std::getline(ss, c, '/');) {
    if (!c.empty()) comps.push_back(c);
  }
  if (comps.empty()) return s;
  s.stem = comps.back();
  // Use the LAST marker component so absolute paths classify correctly.
  for (std::size_t i = comps.size(); i-- > 0;) {
    if (comps[i] == "src" || comps[i] == "bench" || comps[i] == "tests") {
      s.src = comps[i] == "src";
      if (s.src && i + 2 < comps.size()) s.subdir = comps[i + 1];
      break;
    }
  }
  return s;
}

// --- rule context -----------------------------------------------------------

struct Ctx {
  const std::string& path;
  const Scanned& sc;
  Scope scope;
  std::vector<Diagnostic>& diags;
  // Per-line suppression state parsed from comments.
  LineDirectives directives;

  [[nodiscard]] int line_of(std::size_t off) const {
    const auto it = std::upper_bound(sc.line_start.begin(),
                                     sc.line_start.end(), off);
    return static_cast<int>(it - sc.line_start.begin());  // 1-based
  }

  void diag(const std::string& rule, std::size_t off, std::string msg) {
    const int line = line_of(off);
    if (directives.suppressed(rule, line)) return;
    diags.push_back(Diagnostic{path, line, rule, std::move(msg)});
  }
};

// Last identifier component of a range expression: "mon.flows()" -> "flows",
// "buckets_[b]" -> "buckets_", "*it" -> "it".
std::string trailing_ident(std::string expr) {
  auto trim = [](std::string& s) {
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.back())) != 0) {
      s.pop_back();
    }
  };
  trim(expr);
  // Strip trailing calls/subscripts: flows() / buckets_[b].
  while (!expr.empty() && (expr.back() == ')' || expr.back() == ']')) {
    const char close = expr.back();
    const char open = close == ')' ? '(' : '[';
    int depth = 0;
    std::size_t i = expr.size();
    while (i-- > 0) {
      if (expr[i] == close) ++depth;
      if (expr[i] == open && --depth == 0) break;
    }
    expr.resize(i);
    trim(expr);
  }
  std::size_t end = expr.size();
  while (end > 0 && !is_ident(expr[end - 1])) --end;
  std::size_t beg = end;
  while (beg > 0 && is_ident(expr[beg - 1])) --beg;
  return expr.substr(beg, end - beg);
}

// --- rules ------------------------------------------------------------------

void rule_wall_clock(Ctx& ctx) {
  static constexpr std::string_view kBanned[] = {
      "system_clock", "steady_clock", "high_resolution_clock",
      "gettimeofday", "clock_gettime"};
  const std::string& code = ctx.sc.code;
  for (const auto tok : kBanned) {
    for (std::size_t p = find_token(code, tok, 0); p != std::string::npos;
         p = find_token(code, tok, p + 1)) {
      ctx.diag("wall-clock", p,
               std::string(tok) +
                   " reads wall time: results must be a pure function of "
                   "the seed (use core::SimTime)");
    }
  }
  // Bare time(...) — but not a member named time (x.time(), x->time()).
  for (std::size_t p = find_token(code, "time", 0); p != std::string::npos;
       p = find_token(code, "time", p + 1)) {
    const std::size_t after = skip_ws(code, p + 4);
    if (after >= code.size() || code[after] != '(') continue;
    std::size_t b = p;
    while (b > 0 &&
           std::isspace(static_cast<unsigned char>(code[b - 1])) != 0) {
      --b;
    }
    if (b > 0 && (code[b - 1] == '.' ||
                  (b > 1 && code[b - 2] == '-' && code[b - 1] == '>'))) {
      continue;  // member access, e.g. fired.time
    }
    ctx.diag("wall-clock", p,
             "time() reads wall time: derive timestamps from core::SimTime");
  }
}

void rule_entropy(Ctx& ctx) {
  // core/rng.* IS the documented seed plumbing.
  if (ctx.scope.src && ctx.scope.subdir == "core" &&
      ctx.scope.stem.rfind("rng.", 0) == 0) {
    return;
  }
  const std::string& code = ctx.sc.code;
  static constexpr std::string_view kBanned[] = {
      "random_device", "srand", "drand48", "lrand48", "getentropy"};
  for (const auto tok : kBanned) {
    for (std::size_t p = find_token(code, tok, 0); p != std::string::npos;
         p = find_token(code, tok, p + 1)) {
      ctx.diag("entropy", p,
               std::string(tok) +
                   " is ambient entropy: all randomness must flow from the "
                   "campaign seed via core::Rng");
    }
  }
  for (std::size_t p = find_token(code, "rand", 0); p != std::string::npos;
       p = find_token(code, "rand", p + 1)) {
    const std::size_t after = skip_ws(code, p + 4);
    if (after < code.size() && code[after] == '(') {
      ctx.diag("entropy", p,
               "rand() is unseeded global state: use core::Rng");
    }
  }
}

void rule_unordered_iter(Ctx& ctx) {
  if (!ctx.scope.src || ctx.scope.subdir == "stats") return;
  const std::string& code = ctx.sc.code;

  // Pass 1: names declared in this file with an unordered type — variables
  // and functions returning (references to) unordered containers.
  std::unordered_set<std::string> names;
  for (const std::string_view tok : {"unordered_map", "unordered_set"}) {
    for (std::size_t p = find_token(code, tok, 0); p != std::string::npos;
         p = find_token(code, tok, p + 1)) {
      std::size_t q = skip_ws(code, p + tok.size());
      if (q >= code.size() || code[q] != '<') continue;
      int depth = 0;
      while (q < code.size()) {
        if (code[q] == '<') ++depth;
        if (code[q] == '>' && --depth == 0) break;
        ++q;
      }
      if (q >= code.size()) continue;
      q = skip_ws(code, q + 1);
      while (q < code.size() && (code[q] == '&' || code[q] == '*')) {
        q = skip_ws(code, q + 1);
      }
      std::size_t e = q;
      while (e < code.size() && is_ident(code[e])) ++e;
      if (e == q) continue;
      names.insert(code.substr(q, e - q));
    }
  }
  if (names.empty()) return;

  // Pass 2: range-for whose range expression names one of them.
  for (std::size_t p = find_token(code, "for", 0); p != std::string::npos;
       p = find_token(code, "for", p + 1)) {
    std::size_t q = skip_ws(code, p + 3);
    if (q >= code.size() || code[q] != '(') continue;
    int depth = 0;
    std::size_t colon = std::string::npos;
    std::size_t close = q;
    for (; close < code.size(); ++close) {
      const char c = code[close];
      if (c == '(') ++depth;
      if (c == ')' && --depth == 0) break;
      if (c == ':' && depth == 1 && colon == std::string::npos) {
        const bool dbl = (close + 1 < code.size() && code[close + 1] == ':') ||
                         (close > 0 && code[close - 1] == ':');
        if (!dbl) colon = close;
      }
    }
    if (colon == std::string::npos || close >= code.size()) continue;
    const std::string ident =
        trailing_ident(code.substr(colon + 1, close - colon - 1));
    if (names.count(ident) != 0) {
      ctx.diag("unordered-iter", p,
               "range-for over unordered container '" + ident +
                   "': iteration order is hash-seed dependent and breaks "
                   "byte-identical output (sort keys first)");
    }
  }
}

void rule_ordered_sum(Ctx& ctx) {
  if (!ctx.scope.src || ctx.scope.subdir != "stats") return;
  const std::string& code = ctx.sc.code;

  // Names declared double in THIS file (heuristic: same-file knowledge
  // only; stats code is header-heavy so declarations and loops co-reside).
  std::unordered_set<std::string> doubles;
  for (std::size_t p = find_token(code, "double", 0); p != std::string::npos;
       p = find_token(code, "double", p + 1)) {
    std::size_t q = skip_ws(code, p + 6);
    std::size_t e = q;
    while (e < code.size() && is_ident(code[e])) ++e;
    if (e > q) doubles.insert(code.substr(q, e - q));
  }
  if (doubles.empty()) return;

  // Loop body ranges.
  std::vector<std::pair<std::size_t, std::size_t>> loops;
  for (const std::string_view kw : {"for", "while"}) {
    for (std::size_t p = find_token(code, kw, 0); p != std::string::npos;
         p = find_token(code, kw, p + 1)) {
      std::size_t q = skip_ws(code, p + kw.size());
      if (q >= code.size() || code[q] != '(') continue;
      int depth = 0;
      while (q < code.size()) {
        if (code[q] == '(') ++depth;
        if (code[q] == ')' && --depth == 0) break;
        ++q;
      }
      if (q >= code.size()) continue;
      std::size_t body = skip_ws(code, q + 1);
      if (body < code.size() && code[body] == '{') {
        int b = 0;
        std::size_t r = body;
        while (r < code.size()) {
          if (code[r] == '{') ++b;
          if (code[r] == '}' && --b == 0) break;
          ++r;
        }
        loops.emplace_back(body, r);
      } else {
        const std::size_t semi = code.find(';', body);
        loops.emplace_back(body, semi == std::string::npos ? code.size()
                                                           : semi);
      }
    }
  }

  for (std::size_t p = code.find("+="); p != std::string::npos;
       p = code.find("+=", p + 2)) {
    const bool in_loop = std::any_of(
        loops.begin(), loops.end(),
        [p](const auto& l) { return p >= l.first && p <= l.second; });
    if (!in_loop) continue;
    // LHS identifier (strip a trailing subscript).
    std::size_t e = p;
    while (e > 0 &&
           std::isspace(static_cast<unsigned char>(code[e - 1])) != 0) {
      --e;
    }
    if (e > 0 && code[e - 1] == ']') {
      int depth = 0;
      while (e-- > 0) {
        if (code[e] == ']') ++depth;
        if (code[e] == '[' && --depth == 0) break;
      }
    }
    std::size_t beg = e;
    while (beg > 0 && is_ident(code[beg - 1])) --beg;
    const std::string lhs = code.substr(beg, e - beg);
    if (doubles.count(lhs) == 0) continue;
    const int line = ctx.line_of(p);
    bool noted = false;
    for (int l = line - 1; l >= line - 2 && l >= 0; --l) {
      const auto idx = static_cast<std::size_t>(l);
      if (idx < ctx.directives.ordered_sum_note.size() &&
          ctx.directives.ordered_sum_note[idx]) {
        noted = true;
      }
    }
    if (noted) continue;
    ctx.diag("ordered-sum", p,
             "double accumulation '" + lhs +
                 " +=' in a loop: summation order changes the bits — "
                 "annotate the fixed order with `// nfvsb-lint: "
                 "ordered-sum` or use a deterministic reduction");
  }
}

bool read_file(const std::filesystem::path& p, std::string& text) {
  std::ifstream in(p);
  if (!in) return false;
  std::ostringstream body;
  body << in.rdbuf();
  text = body.str();
  return true;
}

}  // namespace

std::vector<Diagnostic> lint_source(const std::string& path,
                                    const std::string& content) {
  std::vector<Diagnostic> diags;
  const Scanned sc = scan(content);
  Ctx ctx{path, sc, classify(path), diags, parse_line_directives(content, sc)};
  rule_wall_clock(ctx);
  rule_entropy(ctx);
  rule_unordered_iter(ctx);
  rule_ordered_sum(ctx);
  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return diags;
}

int run(const std::string& root, std::ostream& out,
        std::vector<Diagnostic>* collect) {
  namespace fs = std::filesystem;
  const fs::path base = root.empty() ? fs::path(".") : fs::path(root);
  const fs::path manifest_path = base / "tools" / "nfvsb-lint" / "layers.def";
  std::string text;
  if (!read_file(manifest_path, text)) {
    out << "nfvsb-lint: cannot read manifest " << manifest_path.string()
        << "\n";
    return 2;
  }
  Manifest manifest;
  std::string error;
  if (!parse_manifest(text, manifest, error)) {
    out << "nfvsb-lint: " << manifest_path.string() << ": " << error << "\n";
    return 2;
  }

  std::vector<SourceFile> files;
  for (const char* top : {"src", "tools", "bench", "tests"}) {
    std::error_code ec;
    const fs::path dir = base / top;
    if (!fs::is_directory(dir, ec)) continue;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".hpp" && ext != ".cpp" && ext != ".cc") {
        continue;
      }
      if (!read_file(it->path(), text)) {
        out << "nfvsb-lint: cannot read " << it->path().string() << "\n";
        return 2;
      }
      std::string rel = fs::relative(it->path(), base, ec).generic_string();
      if (ec || rel.empty()) rel = it->path().generic_string();
      files.push_back(SourceFile{std::move(rel), std::move(text)});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.repo_path < b.repo_path;
            });

  // Per-file findings first (by path, then line), then the architecture
  // pass's (sorted the same way).
  std::vector<Diagnostic> diags;
  for (const SourceFile& f : files) {
    for (Diagnostic& d : lint_source(f.repo_path, f.content)) {
      diags.push_back(std::move(d));
    }
  }
  for (Diagnostic& d : analyze_architecture(files, manifest)) {
    diags.push_back(std::move(d));
  }
  for (const Diagnostic& d : diags) {
    out << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message
        << "\n";
    if (collect != nullptr) collect->push_back(d);
  }
  out << "nfvsb-lint: " << files.size() << " files, " << diags.size()
      << " finding(s)\n";
  return diags.empty() ? 0 : 1;
}

}  // namespace nfvsb::lint
