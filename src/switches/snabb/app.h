// Snabb app abstraction.
//
// An app is a Lua module instance with named input/output link ends. Unlike
// the run-to-completion switches, packets traverse ONE app per engine
// breath and are staged on inter-app links in between — Snabb is the only
// pure pipeline design in the paper's taxonomy (Table 1), and the staging
// is what costs it throughput ("staging packets in internal buffers imposes
// extra overhead", Sec. 5.2) and latency (Table 4 discussion).
#pragma once

#include <string>
#include <vector>

#include "pkt/packet.h"

namespace nfvsb::switches::snabb {

using Batch = std::vector<pkt::PacketHandle>;

class App {
 public:
  App(std::string name, const char* class_name, double fixed_ns,
      double per_packet_ns)
      : name_(std::move(name)),
        class_name_(class_name),
        fixed_ns_(fixed_ns),
        per_packet_ns_(per_packet_ns) {}
  virtual ~App() = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  /// The Lua module, as config.app names it.
  [[nodiscard]] const char* class_name() const { return class_name_; }

  /// Transform the batch in place; return extra cost in ns (usually 0).
  virtual double process(Batch& batch) = 0;

  [[nodiscard]] double charge_ns(std::size_t n) const {
    return fixed_ns_ + per_packet_ns_ * static_cast<double>(n);
  }

 private:
  std::string name_;
  const char* class_name_;
  double fixed_ns_;
  double per_packet_ns_;
};

/// Intel82599 driver app: binds a switch physical port.
class Intel82599App final : public App {
 public:
  Intel82599App(std::string name, std::size_t port_index)
      : App(std::move(name), "intel_mp.Intel82599", 45, 11.0),
        port_index_(port_index) {}
  [[nodiscard]] std::size_t port_index() const { return port_index_; }
  double process(Batch&) override { return 0.0; }

 private:
  std::size_t port_index_;
};

/// VhostUser app: Snabb's own vhost-user backend implementation.
class VhostUserApp final : public App {
 public:
  VhostUserApp(std::string name, std::size_t port_index)
      : App(std::move(name), "vhost_user.VhostUser", 55, 16.0),
        port_index_(port_index) {}
  [[nodiscard]] std::size_t port_index() const { return port_index_; }
  double process(Batch&) override { return 0.0; }

 private:
  std::size_t port_index_;
};

}  // namespace nfvsb::switches::snabb
