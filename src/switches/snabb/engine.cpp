#include "switches/snabb/engine.h"

#include <cctype>
#include <stdexcept>

namespace nfvsb::switches::snabb {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::pair<std::string, std::string> split_end(const std::string& s) {
  const auto dot = s.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= s.size()) {
    throw std::invalid_argument("snabb: expected app.end: " + s);
  }
  return {s.substr(0, dot), s.substr(dot + 1)};
}

}  // namespace

App& AppEngine::app(std::unique_ptr<App> a) {
  if (find(a->name()) != nullptr) {
    throw std::invalid_argument("snabb: duplicate app: " + a->name());
  }
  apps_.push_back(std::move(a));
  return *apps_.back();
}

LinkSpec AppEngine::parse_link(const std::string& spec) {
  const auto arrow = spec.find("->");
  if (arrow == std::string::npos) {
    throw std::invalid_argument("snabb: link needs '->': " + spec);
  }
  const auto [fa, fe] = split_end(trim(spec.substr(0, arrow)));
  const auto [ta, te] = split_end(trim(spec.substr(arrow + 2)));
  return LinkSpec{fa, fe, ta, te};
}

void AppEngine::link(const std::string& spec) {
  LinkSpec l = parse_link(spec);
  if (find(l.from_app) == nullptr) {
    throw std::invalid_argument("snabb: unknown app: " + l.from_app);
  }
  if (find(l.to_app) == nullptr) {
    throw std::invalid_argument("snabb: unknown app: " + l.to_app);
  }
  links_.push_back(std::move(l));
}

App* AppEngine::find(const std::string& name) {
  for (auto& a : apps_) {
    if (a->name() == name) return a.get();
  }
  return nullptr;
}

std::string AppEngine::report() const {
  std::string out = "apps:\n";
  for (const auto& a : apps_) {
    out += "  " + a->name() + " (" + a->class_name() + ")\n";
  }
  out += "links:\n";
  for (const auto& l : links_) {
    out += "  " + l.from_app + "." + l.from_end + " -> " + l.to_app + "." +
           l.to_end + "\n";
  }
  return out;
}

}  // namespace nfvsb::switches::snabb
