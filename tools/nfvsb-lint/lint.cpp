#include "nfvsb-lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>
#include <unordered_set>

#include "nfvsb-lint/scan.h"

namespace nfvsb::lint {
namespace {

// --- path scopes ------------------------------------------------------------

struct Scope {
  bool src{false}, bench{false}, tests{false};
  std::string subdir;  // first component under src/ ("core", "hw", ...)
  std::string stem;    // file name
  bool header{false};
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
  s.header = s.stem.size() > 2 && (s.stem.ends_with(".h") ||
                                   s.stem.ends_with(".hpp"));
  // Use the LAST marker component so absolute paths classify correctly.
  for (std::size_t i = comps.size(); i-- > 0;) {
    if (comps[i] == "src" || comps[i] == "bench" || comps[i] == "tests") {
      s.src = comps[i] == "src";
      s.bench = comps[i] == "bench";
      s.tests = comps[i] == "tests";
      if (s.src && i + 2 < comps.size()) s.subdir = comps[i + 1];
      break;
    }
  }
  return s;
}

// --- rule context -----------------------------------------------------------

struct Ctx {
  const std::string& path;
  const std::string& src;  // raw content
  const Scanned& sc;
  Scope scope;
  const Options& opts;
  FileReport& report;
  // Per-line suppression state parsed from comments.
  LineDirectives directives;

  [[nodiscard]] int line_of(std::size_t off) const {
    const auto it = std::upper_bound(sc.line_start.begin(),
                                     sc.line_start.end(), off);
    return static_cast<int>(it - sc.line_start.begin());  // 1-based
  }

  [[nodiscard]] bool suppressed(const std::string& rule, int line) const {
    return directives.suppressed(rule, line);
  }

  void diag(const std::string& rule, std::size_t off, std::string msg) {
    const int line = line_of(off);
    if (suppressed(rule, line)) return;
    report.diagnostics.push_back(Diagnostic{path, line, rule, std::move(msg)});
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

void rule_std_function(Ctx& ctx) {
  if (!ctx.scope.src || (ctx.scope.subdir != "core" &&
                         ctx.scope.subdir != "ring" &&
                         ctx.scope.subdir != "hw" &&
                         ctx.scope.subdir != "obs" &&
                         ctx.scope.subdir != "switches")) {
    return;
  }
  const std::string& code = ctx.sc.code;
  for (std::size_t p = code.find("std::function"); p != std::string::npos;
       p = code.find("std::function", p + 1)) {
    if (p + 13 < code.size() && is_ident(code[p + 13])) continue;
    ctx.diag("std-function", p,
             "std::function heap-allocates large captures on the event hot "
             "path: use core::EventFn / core::SmallFn");
  }
}

void rule_naked_new(Ctx& ctx) {
  if (!ctx.scope.src) return;
  const std::string& sd = ctx.scope.subdir;
  if (sd != "core" && sd != "pkt" && sd != "ring" && sd != "hw" &&
      sd != "switches") {
    return;
  }
  const std::string& code = ctx.sc.code;
  // `#include <new>` is not an allocation.
  auto on_pp_line = [&](std::size_t p) {
    std::size_t b = p;
    while (b > 0 && code[b - 1] != '\n') --b;
    const std::size_t f = skip_ws(code, b);
    return f < code.size() && code[f] == '#';
  };
  for (std::size_t p = find_token(code, "new", 0); p != std::string::npos;
       p = find_token(code, "new", p + 1)) {
    if (on_pp_line(p)) continue;
    if (p >= 2 && code[p - 1] == ':' && code[p - 2] == ':') {
      continue;  // ::new — placement new into owned storage is fine
    }
    // `operator new` declarations are not allocations.
    std::size_t b = p;
    while (b > 0 &&
           std::isspace(static_cast<unsigned char>(code[b - 1])) != 0) {
      --b;
    }
    if (b >= 8 && code.compare(b - 8, 8, "operator") == 0) continue;
    ctx.diag("naked-new", p,
             "naked new in the data plane: packets come from PacketPool, "
             "other storage from containers/std::make_unique");
  }
  for (const std::string_view tok : {"malloc", "calloc", "realloc"}) {
    for (std::size_t p = find_token(code, tok, 0); p != std::string::npos;
         p = find_token(code, tok, p + 1)) {
      const std::size_t after = skip_ws(code, p + tok.size());
      if (after < code.size() && code[after] == '(') {
        ctx.diag("naked-new", p,
                 std::string(tok) + " in the data plane: use PacketPool or "
                                    "container storage");
      }
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

void rule_nodiscard(Ctx& ctx, std::vector<std::string>& raw_lines,
                    bool& any_fix) {
  if (!ctx.scope.header || !ctx.scope.src ||
      (ctx.scope.subdir != "core" && ctx.scope.subdir != "hw")) {
    return;
  }
  static constexpr std::string_view kTypes[] = {
      "EventQueue::EventId", "EventId", "std::uint64_t", "bool"};
  const std::size_t nlines = ctx.sc.line_start.size();
  auto code_line = [&](std::size_t l) -> std::string {
    const std::size_t b = ctx.sc.line_start[l];
    const std::size_t e = l + 1 < nlines ? ctx.sc.line_start[l + 1]
                                         : ctx.sc.code.size();
    return ctx.sc.code.substr(b, e - b);
  };
  for (std::size_t l = 0; l < nlines; ++l) {
    const std::string line = code_line(l);
    std::size_t p = skip_ws(line, 0);
    if (p >= line.size()) continue;
    // Qualifiers that may precede the return type.
    bool skip_line = false;
    while (true) {
      bool advanced = false;
      for (const std::string_view q :
           {"static", "inline", "constexpr", "virtual"}) {
        if (line.compare(p, q.size(), q) == 0 &&
            (p + q.size() >= line.size() || !is_ident(line[p + q.size()]))) {
          p = skip_ws(line, p + q.size());
          advanced = true;
        }
      }
      if (!advanced) break;
    }
    for (const std::string_view q : {"friend", "explicit", "using", "return",
                                     "operator"}) {
      if (line.compare(p, q.size(), q) == 0 &&
          (p + q.size() >= line.size() || !is_ident(line[p + q.size()]))) {
        skip_line = true;
      }
    }
    if (skip_line) continue;
    if (line.find("[[") != std::string::npos) continue;  // attributed already
    if (l > 0) {
      const std::string prev = code_line(l - 1);
      if (prev.find("[[nodiscard]]") != std::string::npos &&
          prev.find(';') == std::string::npos &&
          prev.find('}') == std::string::npos) {
        continue;  // attribute on its own line above
      }
    }
    std::string_view matched;
    for (const std::string_view t : kTypes) {
      if (line.compare(p, t.size(), t) == 0 &&
          (p + t.size() >= line.size() || !is_ident(line[p + t.size()]))) {
        matched = t;
        break;
      }
    }
    if (matched.empty()) continue;
    std::size_t q = skip_ws(line, p + matched.size());
    std::size_t e = q;
    while (e < line.size() && is_ident(line[e])) ++e;
    if (e == q) continue;  // no identifier (cast, return stmt, ...)
    const std::string fn_name = line.substr(q, e - q);
    if (fn_name == "operator") continue;
    const std::size_t paren = skip_ws(line, e);
    if (paren >= line.size() || line[paren] != '(') continue;
    const std::size_t off = ctx.sc.line_start[l] + p;
    const int lineno = static_cast<int>(l) + 1;
    if (ctx.suppressed("nodiscard", lineno)) continue;
    if (ctx.opts.fix) {
      const std::size_t ins = skip_ws(raw_lines[l], 0);
      raw_lines[l].insert(ins, "[[nodiscard]] ");
      any_fix = true;
      ctx.report.diagnostics.push_back(
          Diagnostic{ctx.path, lineno, "nodiscard",
                     "fixed: inserted [[nodiscard]] on '" + fn_name + "'"});
    } else {
      ctx.diag("nodiscard", off,
               "'" + fn_name + "' returns " + std::string(matched) +
                   " without [[nodiscard]]: dropped ids/success codes hide "
                   "lost cancellations and unchecked failures (run "
                   "nfvsb-lint --fix)");
    }
  }
}

bool rule_enabled(const Options& opts, std::string_view id) {
  if (opts.only_rules.empty()) return true;
  return std::find(opts.only_rules.begin(), opts.only_rules.end(), id) !=
         opts.only_rules.end();
}

}  // namespace

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> kIds = {
      "wall-clock",  "entropy",     "unordered-iter", "std-function",
      "naked-new",   "ordered-sum", "nodiscard"};
  return kIds;
}

FileReport lint_source(const std::string& path, const std::string& content,
                       const Options& opts) {
  FileReport report;
  const Scanned sc = scan(content);
  Ctx ctx{path, content, sc, classify(path), opts, report,
          parse_line_directives(content, sc)};

  if (rule_enabled(opts, "wall-clock")) rule_wall_clock(ctx);
  if (rule_enabled(opts, "entropy")) rule_entropy(ctx);
  if (rule_enabled(opts, "unordered-iter")) rule_unordered_iter(ctx);
  if (rule_enabled(opts, "std-function")) rule_std_function(ctx);
  if (rule_enabled(opts, "naked-new")) rule_naked_new(ctx);
  if (rule_enabled(opts, "ordered-sum")) rule_ordered_sum(ctx);
  if (rule_enabled(opts, "nodiscard")) {
    std::vector<std::string> raw_lines;
    {
      std::size_t start = 0;
      for (std::size_t i = 1; i < sc.line_start.size(); ++i) {
        raw_lines.push_back(
            content.substr(start, sc.line_start[i] - start));
        start = sc.line_start[i];
      }
      raw_lines.push_back(content.substr(start));
    }
    bool any_fix = false;
    rule_nodiscard(ctx, raw_lines, any_fix);
    if (any_fix) {
      std::string joined;
      for (const std::string& l : raw_lines) joined += l;
      report.fixed_content = std::move(joined);
      report.fixes_applied = true;
    }
  }

  std::sort(report.diagnostics.begin(), report.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return report;
}

int run(const std::vector<std::string>& paths, const Options& opts,
        std::ostream& out, std::vector<Diagnostic>* collect) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (auto it = fs::recursive_directory_iterator(p, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc") {
          files.push_back(it->path().string());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      out << "nfvsb-lint: no such file or directory: " << p << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  int findings = 0;
  int fixes = 0;
  for (const std::string& f : files) {
    std::ifstream in(f);
    if (!in) {
      out << "nfvsb-lint: cannot read " << f << "\n";
      return 2;
    }
    std::ostringstream body;
    body << in.rdbuf();
    const FileReport rep = lint_source(f, body.str(), opts);
    for (const Diagnostic& d : rep.diagnostics) {
      const bool fixed = d.message.rfind("fixed:", 0) == 0;
      out << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message
          << "\n";
      if (collect != nullptr && !fixed) collect->push_back(d);
      if (fixed) {
        ++fixes;
      } else {
        ++findings;
      }
    }
    if (rep.fixes_applied) {
      std::ofstream rewrite(f, std::ios::trunc);
      if (!rewrite) {
        out << "nfvsb-lint: cannot rewrite " << f << "\n";
        return 2;
      }
      rewrite << rep.fixed_content;
    }
  }
  out << "nfvsb-lint: " << files.size() << " files, " << findings
      << " finding(s)" << (fixes != 0 ? ", " + std::to_string(fixes) +
                                            " fixed"
                                      : "")
      << "\n";
  return findings == 0 ? 0 : 1;
}

}  // namespace nfvsb::lint
