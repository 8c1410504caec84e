#include "switches/fastclick/config_parser.h"

#include <cctype>
#include <charconv>
#include <memory>
#include <stdexcept>
#include <vector>

#include "switches/fastclick/elements.h"

namespace nfvsb::switches::fastclick {
namespace {

std::string strip_comments(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '/' && i + 1 < s.size() && s[i + 1] == '/') {
      while (i < s.size() && s[i] != '\n') ++i;
      if (i < s.size()) out.push_back('\n');
      continue;
    }
    out.push_back(s[i]);
  }
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split_top(const std::string& s,
                                   const std::string& sep) {
  // Split on `sep` outside parentheses.
  std::vector<std::string> parts;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')') --depth;
    if (depth == 0 && s.compare(i, sep.size(), sep) == 0) {
      parts.push_back(s.substr(start, i - start));
      i += sep.size() - 1;
      start = i + 1;
    }
  }
  parts.push_back(s.substr(start));
  return parts;
}

std::size_t parse_device(const std::string& args, const std::string& where) {
  // The device number is the first comma-separated arg; extra args (paper
  // tunings like N_QUEUES) are accepted and ignored.
  const std::string first = trim(split_top(args, ",").front());
  std::size_t dev = 0;
  auto [p, ec] =
      std::from_chars(first.data(), first.data() + first.size(), dev);
  if (ec != std::errc{} || p != first.data() + first.size()) {
    throw std::invalid_argument("click: bad device number in " + where);
  }
  return dev;
}

}  // namespace

Element& ConfigParser::make_element(const std::string& class_name,
                                    const std::string& args,
                                    const std::string& name) {
  std::unique_ptr<Element> e;
  if (class_name == "FromDPDKDevice") {
    auto dev = parse_device(args, class_name);
    auto el = std::make_unique<FromDPDKDevice>(name, dev);
    auto& ref = *el;
    router_.add(std::move(el));
    router_.register_input(dev, ref);
    return ref;
  }
  if (class_name == "ToDPDKDevice") {
    e = std::make_unique<ToDPDKDevice>(name, parse_device(args, class_name));
  } else if (class_name == "EtherMirror") {
    e = std::make_unique<EtherMirror>(name);
  } else {
    throw std::invalid_argument("click: unknown element class: " + class_name);
  }
  return router_.add(std::move(e));
}

Element& ConfigParser::resolve(const std::string& raw) {
  const std::string expr = trim(raw);
  if (expr.empty()) throw std::invalid_argument("click: empty expression");

  const auto paren = expr.find('(');
  if (paren != std::string::npos) {
    // Anonymous instantiation: ClassName(args)
    if (expr.back() != ')') {
      throw std::invalid_argument("click: unbalanced parens: " + expr);
    }
    const std::string cls = trim(expr.substr(0, paren));
    const std::string args = expr.substr(paren + 1, expr.size() - paren - 2);
    const std::string name =
        cls + "@" + std::to_string(++anon_counter_);
    return make_element(cls, args, name);
  }
  if (Element* e = router_.find(expr)) return *e;
  throw std::invalid_argument("click: undeclared element: " + expr);
}

void ConfigParser::parse(const std::string& config) {
  const std::string clean = strip_comments(config);
  for (const std::string& stmt_raw : split_top(clean, ";")) {
    const std::string stmt = trim(stmt_raw);
    if (stmt.empty()) continue;

    // Declaration?  name :: Class(args)  — '::' outside parens.
    const auto decl = split_top(stmt, "::");
    if (decl.size() == 2) {
      const std::string name = trim(decl[0]);
      std::string rhs = trim(decl[1]);
      if (router_.find(name) != nullptr) {
        throw std::invalid_argument("click: redeclared element: " + name);
      }
      const auto paren = rhs.find('(');
      std::string cls = rhs, args;
      if (paren != std::string::npos) {
        if (rhs.back() != ')') {
          throw std::invalid_argument("click: unbalanced parens: " + rhs);
        }
        cls = trim(rhs.substr(0, paren));
        args = rhs.substr(paren + 1, rhs.size() - paren - 2);
      }
      make_element(cls, args, name);
      continue;
    }
    if (decl.size() > 2) {
      throw std::invalid_argument("click: bad declaration: " + stmt);
    }

    // Connection chain.
    Element* prev = nullptr;
    for (const std::string& expr : split_top(stmt, "->")) {
      Element& e = resolve(expr);
      if (prev != nullptr) prev->connect(e);
      prev = &e;
    }
  }
}

}  // namespace nfvsb::switches::fastclick
