// Parser for the Click configuration language subset used in the paper and
// examples:
//
//   FromDPDKDevice(0) -> ToDPDKDevice(1);
//   m :: EtherMirror;
//   FromDPDKDevice(0) -> m -> ToDPDKDevice(1);
//
// Grammar: statements separated by ';'. A statement is either a declaration
//   name :: ClassName(args)
// or a connection chain of expressions joined by '->', where an expression
// is a declared name or an anonymous instantiation ClassName(args). Every
// element has one output. Comments (// to end of line) are stripped.
#pragma once

#include <string>

#include "switches/fastclick/element.h"

namespace nfvsb::switches::fastclick {

class ConfigParser {
 public:
  explicit ConfigParser(Router& router) : router_(router) {}

  /// Parse `config` and build elements/connections into the router.
  /// Throws std::invalid_argument with a useful message on errors.
  void parse(const std::string& config);

 private:
  Element& make_element(const std::string& class_name,
                        const std::string& args, const std::string& name);
  Element& resolve(const std::string& expr);

  Router& router_;
  int anon_counter_{0};
};

}  // namespace nfvsb::switches::fastclick
