#include "switches/fastclick/element.h"

namespace nfvsb::switches::fastclick {

Element& Router::add(std::unique_ptr<Element> e) {
  elements_.push_back(std::move(e));
  return *elements_.back();
}

Element* Router::find(const std::string& name) {
  for (auto& e : elements_) {
    if (e->name() == name) return e.get();
  }
  return nullptr;
}

std::string Router::unparse() const {
  std::string out;
  for (const auto& e : elements_) {
    out += e->name();
    out += " :: ";
    out += e->class_name();
    out += ";\n";
  }
  for (const auto& e : elements_) {
    if (const Element* to = e->next()) {
      out += e->name() + " -> " + to->name() + ";\n";
    }
  }
  return out;
}

void Router::register_input(std::size_t device, Element& entry) {
  inputs_.emplace_back(device, &entry);
}

Element* Router::input_for(std::size_t device) {
  for (auto& [dev, el] : inputs_) {
    if (dev == device) return el;
  }
  return nullptr;
}

}  // namespace nfvsb::switches::fastclick
