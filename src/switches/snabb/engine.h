// Snabb app engine: the config.new()/config.app()/config.link() surface
// from the paper's appendix A.1:
//
//   local c = config.new()
//   config.app(c, "nic1", ..., {pciaddr = pci1})
//   config.app(c, "nic2", ..., {pciaddr = pci2})
//   config.link(c, "nic1.tx -> nic2.rx")
//
// Mirrored here as AppEngine::app(...) / AppEngine::link("nic1.tx ->
// nic2.rx"). Links become staging buffers: one engine breath moves a batch
// across one app.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "switches/snabb/app.h"

namespace nfvsb::switches::snabb {

struct LinkSpec {
  std::string from_app;
  std::string from_end;  // "tx"
  std::string to_app;
  std::string to_end;    // "rx"
};

class AppEngine {
 public:
  /// Register an app (config.app). Throws on duplicate names.
  App& app(std::unique_ptr<App> a);

  /// Parse and register "appA.out -> appB.in" (config.link). Throws on
  /// malformed specs or unknown apps.
  void link(const std::string& spec);

  [[nodiscard]] App* find(const std::string& name);
  [[nodiscard]] const std::vector<LinkSpec>& links() const { return links_; }
  [[nodiscard]] std::size_t app_count() const { return apps_.size(); }

  static LinkSpec parse_link(const std::string& spec);

  /// Render the app network like `snabb top`'s configuration view.
  [[nodiscard]] std::string report() const;

 private:
  std::vector<std::unique_ptr<App>> apps_;
  std::vector<LinkSpec> links_;
};

}  // namespace nfvsb::switches::snabb
