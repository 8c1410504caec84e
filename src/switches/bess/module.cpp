#include "switches/bess/module.h"

namespace nfvsb::switches::bess {

Module& Pipeline::add(std::unique_ptr<Module> m) {
  modules_.push_back(std::move(m));
  return *modules_.back();
}

std::string Pipeline::show() const {
  std::string out;
  for (const auto& m : modules_) {
    out += m->name();
    out += "::";
    out += m->class_name();
    if (const Module* to = m->next()) out += "\n  :0 -> " + to->name();
    out += "\n";
  }
  return out;
}

void Pipeline::register_input(std::size_t port, Module& entry) {
  inputs_.emplace_back(port, &entry);
}

Module* Pipeline::input_for(std::size_t port) {
  for (auto& [p, m] : inputs_) {
    if (p == port) return m;
  }
  return nullptr;
}

}  // namespace nfvsb::switches::bess
