#include "nfvsb-lint/arch.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "nfvsb-lint/scan.h"

namespace nfvsb::lint {
namespace {

// --- include extraction -----------------------------------------------------

// Split `s` into whitespace-separated tokens.
std::vector<std::string> split_tokens(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  for (std::string t; ss >> t;) out.push_back(std::move(t));
  return out;
}

struct CondFrame {
  bool live;     // this branch is live (given live enclosing frames)
  bool was_if0;  // frame opened by a literal `#if 0`
};

}  // namespace

std::vector<Include> extract_includes(const std::string& content) {
  const Scanned sc = scan(content);
  std::vector<Include> out;
  std::vector<CondFrame> cond;
  const std::size_t nlines = sc.line_start.size();
  for (std::size_t l = 0; l < nlines; ++l) {
    const std::size_t b = sc.line_start[l];
    const std::size_t e =
        l + 1 < nlines ? sc.line_start[l + 1] : sc.code.size();
    std::string line = sc.code.substr(b, e - b);
    std::size_t p = skip_ws(line, 0);
    if (p >= line.size() || line[p] != '#') continue;
    p = skip_ws(line, p + 1);
    std::size_t kw_end = p;
    while (kw_end < line.size() && is_ident(line[kw_end])) ++kw_end;
    const std::string kw = line.substr(p, kw_end - p);
    const bool live = std::all_of(cond.begin(), cond.end(),
                                  [](const CondFrame& f) { return f.live; });
    if (kw == "if" || kw == "ifdef" || kw == "ifndef") {
      bool if0 = false;
      if (kw == "if") {
        const std::size_t a = skip_ws(line, kw_end);
        std::size_t z = a;
        while (z < line.size() &&
               std::isspace(static_cast<unsigned char>(line[z])) == 0) {
          ++z;
        }
        if0 = line.substr(a, z - a) == "0" && skip_ws(line, z) >= line.size();
      }
      cond.push_back(CondFrame{!if0, if0});
    } else if (kw == "elif") {
      // A branch following `#if 0` may be live; anything after a live
      // branch of an unevaluated conditional is over-approximated as live.
      if (!cond.empty() && cond.back().was_if0) {
        cond.back() = CondFrame{true, false};
      }
    } else if (kw == "else") {
      if (!cond.empty()) {
        // `#if 0 ... #else` turns live; other conditionals stay
        // over-approximated as live in both branches.
        if (cond.back().was_if0) cond.back() = CondFrame{true, false};
      }
    } else if (kw == "endif") {
      if (!cond.empty()) cond.pop_back();
    } else if (kw == "include" && live) {
      const std::size_t a = skip_ws(line, kw_end);
      if (a >= line.size()) continue;
      const char open = line[a];
      if (open != '<' && open != '"') continue;
      const char close = open == '<' ? '>' : '"';
      const std::size_t z = line.find(close, a + 1);
      if (z == std::string::npos) continue;
      std::string target = line.substr(a + 1, z - a - 1);
      // The code view blanks string-literal bodies, so a quoted target
      // comes back as spaces — recover it from the raw source instead.
      if (open == '"') {
        target = content.substr(b + a + 1, z - a - 1);
      }
      out.push_back(
          Include{std::move(target), open == '<', static_cast<int>(l) + 1});
    }
  }
  return out;
}

// --- manifest ---------------------------------------------------------------

int Manifest::rank_of(const std::string& layer) const {
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    if (std::find(ranks[r].begin(), ranks[r].end(), layer) !=
        ranks[r].end()) {
      return static_cast<int>(r);
    }
  }
  return -1;
}

bool parse_manifest(const std::string& text, Manifest& m, std::string& error) {
  m = Manifest{};
  std::stringstream ss(text);
  std::string raw;
  int lineno = 0;
  auto fail = [&](const std::string& why) {
    error = "line " + std::to_string(lineno) + ": " + why;
    return false;
  };
  while (std::getline(ss, raw)) {
    ++lineno;
    const std::size_t hash = raw.find('#');
    std::string line = hash == std::string::npos ? raw : raw.substr(0, hash);
    std::vector<std::string> tok = split_tokens(line);
    if (tok.empty()) continue;
    const std::string kw = tok[0];
    if (kw == "layer") {
      if (tok.size() < 2) return fail("`layer` needs at least one directory");
      for (std::size_t i = 1; i < tok.size(); ++i) {
        if (m.rank_of(tok[i]) >= 0) {
          return fail("layer '" + tok[i] + "' declared twice");
        }
      }
      m.ranks.emplace_back(tok.begin() + 1, tok.end());
    } else if (kw == "allow") {
      if (tok.size() != 4 || tok[2] != "->") {
        return fail("expected `allow <from> -> <to>`");
      }
      for (const std::string& l : {tok[1], tok[3]}) {
        if (m.rank_of(l) < 0) return fail("unknown layer '" + l + "'");
      }
      m.allow.emplace(tok[1], tok[3]);
    } else if (kw == "ban") {
      const auto colon = std::find(tok.begin() + 1, tok.end(), ":");
      if (colon == tok.end() || colon == tok.begin() + 1 ||
          colon + 1 == tok.end()) {
        return fail("expected `ban <layers...> : <headers...>`");
      }
      for (auto it = tok.begin() + 1; it != colon; ++it) {
        if (m.rank_of(*it) < 0) return fail("unknown layer '" + *it + "'");
        m.bans[*it].insert(colon + 1, tok.end());
      }
    } else if (kw == "symbol") {
      if (tok.size() != 3) return fail("expected `symbol <name> <header>`");
      m.symbols.emplace_back(tok[1], tok[2]);
    } else {
      return fail("unknown directive '" + kw + "'");
    }
  }
  if (m.ranks.empty()) {
    lineno = 0;
    return fail("manifest declares no layers");
  }
  error.clear();
  return true;
}

// --- analysis ---------------------------------------------------------------

namespace {

std::vector<std::string> path_components(const std::string& p) {
  std::vector<std::string> comps;
  std::stringstream ss(p);
  for (std::string c; std::getline(ss, c, '/');) {
    if (!c.empty() && c != ".") comps.push_back(c);
  }
  return comps;
}

std::string join_normalized(std::vector<std::string> comps) {
  std::vector<std::string> norm;
  for (std::string& c : comps) {
    if (c == "..") {
      if (!norm.empty()) norm.pop_back();
    } else {
      norm.push_back(std::move(c));
    }
  }
  std::string out;
  for (const std::string& c : norm) {
    if (!out.empty()) out += '/';
    out += c;
  }
  return out;
}

/// "src/pkt/packet.h" -> "pkt"; "tools/..."/"bench/..."/"tests/..." -> the
/// top directory; anything else (including files directly under src/) -> "".
std::string layer_of(const std::string& repo_path) {
  const std::vector<std::string> comps = path_components(repo_path);
  if (comps.size() >= 3 && comps[0] == "src") return comps[1];
  if (comps.size() >= 2 &&
      (comps[0] == "tools" || comps[0] == "bench" || comps[0] == "tests")) {
    return comps[0];
  }
  return "";
}

struct FileInfo {
  const SourceFile* file{nullptr};
  std::string layer;          // "" when unlayered
  bool in_src{false};
  std::vector<Include> includes;
  std::vector<int> edges;     // resolved quoted includes (file indices)
  std::vector<int> edge_line; // include line per edge
  Scanned sc;
  LineDirectives directives;
};

int line_of_offset(const Scanned& sc, std::size_t off) {
  const auto it =
      std::upper_bound(sc.line_start.begin(), sc.line_start.end(), off);
  return static_cast<int>(it - sc.line_start.begin());
}

}  // namespace

std::vector<Diagnostic> analyze_architecture(
    const std::vector<SourceFile>& files, const Manifest& m) {
  std::vector<Diagnostic> diags;

  // Index by path (sorted input order is the iteration order everywhere, so
  // output is deterministic for a given file set).
  std::vector<const SourceFile*> sorted;
  sorted.reserve(files.size());
  for (const SourceFile& f : files) sorted.push_back(&f);
  std::sort(sorted.begin(), sorted.end(),
            [](const SourceFile* a, const SourceFile* b) {
              return a->repo_path < b->repo_path;
            });
  std::map<std::string, int> index;
  std::vector<FileInfo> info(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    index[sorted[i]->repo_path] = static_cast<int>(i);
  }

  auto resolve = [&](const std::string& from_dir,
                     const std::string& target) -> int {
    const std::string local = join_normalized(
        path_components(from_dir + "/" + target));
    for (const std::string& cand :
         {local, "src/" + target, "tools/" + target, "bench/" + target,
          "tests/" + target, target}) {
      const auto it = index.find(cand);
      if (it != index.end()) return it->second;
    }
    return -1;
  };

  for (std::size_t i = 0; i < sorted.size(); ++i) {
    FileInfo& fi = info[i];
    fi.file = sorted[i];
    fi.layer = layer_of(fi.file->repo_path);
    fi.in_src = fi.file->repo_path.rfind("src/", 0) == 0;
    fi.includes = extract_includes(fi.file->content);
    fi.sc = scan(fi.file->content);
    fi.directives = parse_line_directives(fi.file->content, fi.sc);
    const std::size_t slash = fi.file->repo_path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "" : fi.file->repo_path.substr(0, slash);
    for (const Include& inc : fi.includes) {
      if (inc.angle) continue;  // system headers never form graph edges
      const int to = resolve(dir, inc.target);
      if (to < 0) continue;
      fi.edges.push_back(to);
      fi.edge_line.push_back(inc.line);
    }
  }

  auto diag = [&](const FileInfo& fi, int line, const char* rule,
                  std::string msg, bool suppressible = true) {
    if (suppressible && fi.directives.suppressed(rule, line)) return;
    diags.push_back(Diagnostic{fi.file->repo_path, line, rule,
                               std::move(msg)});
  };

  // --- arch-layer: undeclared src directories + upward includes ---
  for (const FileInfo& fi : info) {
    if (fi.in_src && !fi.layer.empty() && m.rank_of(fi.layer) < 0) {
      diag(fi, 1, "arch-layer",
           "directory 'src/" + fi.layer +
               "' is not declared in layers.def: add a `layer` line "
               "placing it in the dependency order");
    }
  }
  for (const FileInfo& fi : info) {
    const int from_rank = m.rank_of(fi.layer);
    if (!fi.in_src || from_rank < 0) continue;
    for (std::size_t e = 0; e < fi.edges.size(); ++e) {
      const FileInfo& to = info[static_cast<std::size_t>(fi.edges[e])];
      const int line = fi.edge_line[e];
      if (!to.in_src) {
        diag(fi, line, "arch-layer",
             "src layer '" + fi.layer + "' may not include '" +
                 to.file->repo_path + "': " + to.layer +
                 "/ is outside the library layer order");
        continue;
      }
      const int to_rank = m.rank_of(to.layer);
      if (to_rank < 0 || to.layer == fi.layer) continue;
      if (to_rank > from_rank &&
          m.allow.count({fi.layer, to.layer}) == 0) {
        diag(fi, line, "arch-layer",
             "layer '" + fi.layer + "' (rank " +
                 std::to_string(from_rank + 1) + ") may not include layer '" +
                 to.layer + "' (rank " + std::to_string(to_rank + 1) +
                 "): dependencies must point down the layer order "
                 "(restructure, or declare `allow " + fi.layer + " -> " +
                 to.layer + "` in layers.def with a justification)");
      }
    }
  }

  // --- arch-cycle: Tarjan SCCs over the resolved include graph ---
  {
    const int n = static_cast<int>(info.size());
    std::vector<int> idx(static_cast<std::size_t>(n), -1);
    std::vector<int> low(static_cast<std::size_t>(n), 0);
    std::vector<bool> on_stack(static_cast<std::size_t>(n), false);
    std::vector<int> stack;
    std::vector<std::vector<int>> sccs;
    int counter = 0;
    // Iterative Tarjan (explicit frame stack keeps deep include chains off
    // the call stack).
    struct Frame {
      int v;
      std::size_t next_edge;
    };
    for (int root = 0; root < n; ++root) {
      if (idx[static_cast<std::size_t>(root)] != -1) continue;
      std::vector<Frame> frames{{root, 0}};
      idx[static_cast<std::size_t>(root)] =
          low[static_cast<std::size_t>(root)] = counter++;
      stack.push_back(root);
      on_stack[static_cast<std::size_t>(root)] = true;
      while (!frames.empty()) {
        Frame& f = frames.back();
        const auto v = static_cast<std::size_t>(f.v);
        if (f.next_edge < info[v].edges.size()) {
          const int w = info[v].edges[f.next_edge++];
          const auto wu = static_cast<std::size_t>(w);
          if (idx[wu] == -1) {
            idx[wu] = low[wu] = counter++;
            stack.push_back(w);
            on_stack[wu] = true;
            frames.push_back(Frame{w, 0});
          } else if (on_stack[wu]) {
            low[v] = std::min(low[v], idx[wu]);
          }
        } else {
          if (low[v] == idx[v]) {
            std::vector<int> scc;
            while (true) {
              const int w = stack.back();
              stack.pop_back();
              on_stack[static_cast<std::size_t>(w)] = false;
              scc.push_back(w);
              if (w == f.v) break;
            }
            std::sort(scc.begin(), scc.end());
            sccs.push_back(std::move(scc));
          }
          const int finished = f.v;
          frames.pop_back();
          if (!frames.empty()) {
            const auto p = static_cast<std::size_t>(frames.back().v);
            low[p] =
                std::min(low[p], low[static_cast<std::size_t>(finished)]);
          }
        }
      }
    }
    for (std::vector<int>& scc : sccs) {
      const bool self_loop =
          scc.size() == 1 &&
          std::count(info[static_cast<std::size_t>(scc[0])].edges.begin(),
                     info[static_cast<std::size_t>(scc[0])].edges.end(),
                     scc[0]) != 0;
      if (scc.size() < 2 && !self_loop) continue;
      // Reconstruct one concrete cycle from the smallest member: BFS
      // restricted to the SCC, neighbors in index (= path) order, so the
      // reported path is the deterministic shortest cycle.
      const int s = scc[0];
      std::set<int> members(scc.begin(), scc.end());
      std::vector<int> parent(static_cast<std::size_t>(info.size()), -1);
      std::deque<int> q{s};
      std::vector<bool> seen(info.size(), false);
      seen[static_cast<std::size_t>(s)] = true;
      int back_from = -1;
      while (!q.empty() && back_from < 0) {
        const int v = q.front();
        q.pop_front();
        for (const int w : info[static_cast<std::size_t>(v)].edges) {
          if (members.count(w) == 0) continue;
          if (w == s) {
            back_from = v;
            break;
          }
          if (!seen[static_cast<std::size_t>(w)]) {
            seen[static_cast<std::size_t>(w)] = true;
            parent[static_cast<std::size_t>(w)] = v;
            q.push_back(w);
          }
        }
      }
      std::vector<int> path{s};
      if (self_loop) {
        path.push_back(s);
      } else {
        std::vector<int> rev;
        for (int v = back_from; v != -1 && v != s;
             v = parent[static_cast<std::size_t>(v)]) {
          rev.push_back(v);
        }
        path.insert(path.end(), rev.rbegin(), rev.rend());
        path.push_back(s);
      }
      std::string msg = "include cycle (" + std::to_string(scc.size()) +
                        " file" + (scc.size() == 1 ? "" : "s") + "): ";
      for (std::size_t i = 0; i < path.size(); ++i) {
        if (i != 0) msg += " -> ";
        msg += info[static_cast<std::size_t>(path[i])].file->repo_path;
      }
      const FileInfo& anchor = info[static_cast<std::size_t>(s)];
      int line = 1;
      if (path.size() > 1) {
        for (std::size_t e = 0; e < anchor.edges.size(); ++e) {
          if (anchor.edges[e] == path[1]) {
            line = anchor.edge_line[e];
            break;
          }
        }
      }
      diag(anchor, line, "arch-cycle", std::move(msg),
           /*suppressible=*/false);
    }
  }

  // --- arch-banned-header ---
  for (const FileInfo& fi : info) {
    const auto ban = m.bans.find(fi.layer);
    if (!fi.in_src || ban == m.bans.end()) continue;
    for (const Include& inc : fi.includes) {
      if (ban->second.count(inc.target) == 0) continue;
      diag(fi, inc.line, "arch-banned-header",
           std::string(inc.angle ? "<" : "\"") + inc.target +
               (inc.angle ? ">" : "\"") + " is banned in layer '" +
               fi.layer +
               "': data-path code must stay allocation-pattern-stable, "
               "wall-clock-free and hash-order-free");
    }
  }

  // --- arch-transitive-include (IWYU-lite, src/ only) ---
  for (const FileInfo& fi : info) {
    if (!fi.in_src) continue;
    for (const auto& [sym, hdr] : m.symbols) {
      const auto def_it = index.find("src/" + hdr);
      const int def = def_it == index.end() ? -1 : def_it->second;
      if (def >= 0 && fi.file == info[static_cast<std::size_t>(def)].file) {
        continue;  // the defining header itself
      }
      const bool includes_directly =
          std::any_of(fi.includes.begin(), fi.includes.end(),
                      [&](const Include& inc) { return inc.target == hdr; });
      if (includes_directly) continue;
      // First use of the symbol token outside comments/literals.
      std::size_t use = std::string::npos;
      bool declared = false;
      for (std::size_t p = find_token(fi.sc.code, sym, 0);
           p != std::string::npos; p = find_token(fi.sc.code, sym, p + 1)) {
        // `class Sym` / `struct Sym` is a declaration (forward declaration
        // or definition), which states the dependency explicitly.
        std::size_t b = p;
        while (b > 0 && std::isspace(
                            static_cast<unsigned char>(fi.sc.code[b - 1])) !=
                            0) {
          --b;
        }
        std::size_t kb = b;
        while (kb > 0 && is_ident(fi.sc.code[kb - 1])) --kb;
        const std::string kw = fi.sc.code.substr(kb, b - kb);
        if (kw == "class" || kw == "struct" || kw == "enum" ||
            kw == "using" || kw == "namespace") {
          declared = true;
          break;
        }
        if (use == std::string::npos) use = p;
      }
      if (declared || use == std::string::npos) continue;
      diag(fi, line_of_offset(fi.sc, use), "arch-transitive-include",
           "names '" + sym + "' without including \"" + hdr +
               "\" directly: relying on a transitive include breaks when "
               "intermediate headers slim down (add the include or "
               "forward-declare)");
    }
  }

  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return diags;
}

}  // namespace nfvsb::lint
