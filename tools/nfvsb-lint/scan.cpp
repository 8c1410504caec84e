#include "nfvsb-lint/scan.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace nfvsb::lint {

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

namespace {

// A quote at `i` opens a raw string only when the preceding characters are
// exactly one of the raw-literal prefixes R, uR, u8R, UR, LR — i.e. the
// prefix must not be the tail of a longer identifier. `FLOUR"x"` lexes as
// the identifier FLOUR followed by an ordinary string, not as a raw string
// with U as an encoding prefix (regression: tests/lint_test.cpp RawString*).
bool opens_raw_string(const std::string& src, std::size_t i) {
  if (i == 0 || src[i - 1] != 'R') return false;
  std::size_t b = i - 1;  // start of the candidate prefix
  if (b >= 2 && src[b - 2] == 'u' && src[b - 1] == '8') {
    b -= 2;
  } else if (b >= 1 &&
             (src[b - 1] == 'u' || src[b - 1] == 'U' || src[b - 1] == 'L')) {
    b -= 1;
  }
  return b == 0 || !is_ident(src[b - 1]);
}

}  // namespace

Scanned scan(const std::string& src) {
  Scanned out;
  out.code.assign(src.size(), ' ');
  out.comments.assign(src.size(), ' ');
  out.line_start.push_back(0);

  enum class St { Code, LineComment, BlockComment, Str, Chr, RawStr };
  St st = St::Code;
  std::string raw_delim;  // for RawStr: the ")delim\"" terminator
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    if (c == '\n') out.line_start.push_back(i + 1);
    switch (st) {
      case St::Code: {
        const char n = i + 1 < src.size() ? src[i + 1] : '\0';
        if (c == '/' && n == '/') {
          st = St::LineComment;
          ++i;  // swallow both slashes
          if (i < src.size() && src[i] == '\n') out.line_start.push_back(i + 1);
        } else if (c == '/' && n == '*') {
          st = St::BlockComment;
          ++i;
        } else if (c == '"') {
          out.code[i] = '"';
          if (opens_raw_string(src, i)) {
            // The closing delimiter: ')', the d-char-sequence, '"'.
            std::size_t j = i + 1;
            while (j < src.size() && src[j] != '(') ++j;
            raw_delim.assign(1, ')');
            raw_delim.append(src, i + 1, j - (i + 1));
            raw_delim += '"';
            st = St::RawStr;
          } else {
            st = St::Str;
          }
        } else if (c == '\'' && i > 0 && is_ident(src[i - 1])) {
          out.code[i] = c;  // digit separator (1'000): stays code
        } else if (c == '\'') {
          out.code[i] = '\'';
          st = St::Chr;
        } else {
          out.code[i] = c;
        }
        break;
      }
      case St::LineComment:
        if (c == '\n') {
          out.code[i] = '\n';
          st = St::Code;
        } else {
          out.comments[i] = c;
        }
        break;
      case St::BlockComment:
        if (c == '*' && i + 1 < src.size() && src[i + 1] == '/') {
          st = St::Code;
          ++i;
          if (src[i] == '\n') out.line_start.push_back(i + 1);
        } else if (c == '\n') {
          out.code[i] = '\n';
        } else {
          out.comments[i] = c;
        }
        break;
      case St::Str:
        if (c == '\\') {
          ++i;
          if (i < src.size() && src[i] == '\n') out.line_start.push_back(i + 1);
        } else if (c == '"') {
          out.code[i] = '"';
          st = St::Code;
        } else if (c == '\n') {
          out.code[i] = '\n';  // unterminated; recover
          st = St::Code;
        }
        break;
      case St::Chr:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          out.code[i] = '\'';
          st = St::Code;
        } else if (c == '\n') {
          out.code[i] = '\n';
          st = St::Code;
        }
        break;
      case St::RawStr:
        if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          out.code[i] = '"';
          st = St::Code;
        } else if (c == '\n') {
          out.code[i] = '\n';
        }
        break;
    }
  }
  return out;
}

std::size_t find_token(const std::string& code, std::string_view tok,
                       std::size_t from) {
  while (true) {
    const std::size_t p = code.find(tok, from);
    if (p == std::string::npos) return std::string::npos;
    const bool lb = p == 0 || !is_ident(code[p - 1]);
    const std::size_t after = p + tok.size();
    const bool rb = after >= code.size() || !is_ident(code[after]);
    if (lb && rb) return p;
    from = p + 1;
  }
}

std::size_t skip_ws(const std::string& s, std::size_t p) {
  while (p < s.size() &&
         std::isspace(static_cast<unsigned char>(s[p])) != 0) {
    ++p;
  }
  return p;
}

bool LineDirectives::suppressed(const std::string& rule, int line) const {
  for (int l = line - 1; l >= line - 2 && l >= 0; --l) {
    const auto idx = static_cast<std::size_t>(l);
    if (idx < allows.size() && allows[idx].count(rule) != 0) return true;
  }
  return false;
}

LineDirectives parse_line_directives(const std::string& src,
                                     const Scanned& sc) {
  LineDirectives out;
  const std::size_t nlines = sc.line_start.size();
  out.allows.resize(nlines);
  out.ordered_sum_note.resize(nlines, false);
  for (std::size_t l = 0; l < nlines; ++l) {
    const std::size_t b = sc.line_start[l];
    const std::size_t e = l + 1 < nlines ? sc.line_start[l + 1] : src.size();
    const std::string_view cmt(sc.comments.data() + b, e - b);
    const std::size_t tag = cmt.find("nfvsb-lint:");
    if (tag == std::string_view::npos) continue;
    std::string_view rest = cmt.substr(tag + 11);
    if (rest.find("ordered-sum") != std::string_view::npos &&
        rest.find("allow") == std::string_view::npos) {
      out.ordered_sum_note[l] = true;
      continue;
    }
    const std::size_t open = rest.find("allow(");
    if (open == std::string_view::npos) continue;
    const std::size_t close = rest.find(')', open);
    if (close == std::string_view::npos) continue;
    std::string list(rest.substr(open + 6, close - open - 6));
    std::stringstream ss(list);
    for (std::string id; std::getline(ss, id, ',');) {
      id.erase(std::remove_if(id.begin(), id.end(),
                              [](char c) { return std::isspace(
                                  static_cast<unsigned char>(c)) != 0; }),
               id.end());
      if (!id.empty()) out.allows[l].insert(id);
    }
  }
  return out;
}

}  // namespace nfvsb::lint
