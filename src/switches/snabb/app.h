// Snabb app abstraction.
//
// An app is a Lua module instance with named input/output link ends. Unlike
// the run-to-completion switches, packets traverse ONE app per engine
// breath and are staged on inter-app links in between — Snabb is the only
// pure pipeline design in the paper's taxonomy (Table 1), and the staging
// is what costs it throughput ("staging packets in internal buffers imposes
// extra overhead", Sec. 5.2) and latency (Table 4 discussion).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pkt/packet.h"

namespace nfvsb::switches::snabb {

using Batch = std::vector<pkt::PacketHandle>;

class App {
 public:
  App(std::string name, double fixed_ns, double per_packet_ns)
      : name_(std::move(name)),
        fixed_ns_(fixed_ns),
        per_packet_ns_(per_packet_ns) {}
  virtual ~App() = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] virtual const char* class_name() const = 0;

  /// Transform the batch in place; return extra cost in ns (usually 0).
  virtual double process(Batch& batch) = 0;

  [[nodiscard]] double charge_ns(std::size_t n) const {
    return fixed_ns_ + per_packet_ns_ * static_cast<double>(n);
  }

 private:
  std::string name_;
  double fixed_ns_;
  double per_packet_ns_;
};

/// Intel82599 driver app: binds a switch physical port.
class Intel82599App final : public App {
 public:
  Intel82599App(std::string name, std::size_t port_index)
      : App(std::move(name), 45, 11.0), port_index_(port_index) {}
  [[nodiscard]] const char* class_name() const override {
    return "intel_mp.Intel82599";
  }
  [[nodiscard]] std::size_t port_index() const { return port_index_; }
  double process(Batch&) override { return 0.0; }

 private:
  std::size_t port_index_;
};

/// VhostUser app: Snabb's own vhost-user backend implementation.
class VhostUserApp final : public App {
 public:
  VhostUserApp(std::string name, std::size_t port_index)
      : App(std::move(name), 55, 16.0), port_index_(port_index) {}
  [[nodiscard]] const char* class_name() const override {
    return "vhost_user.VhostUser";
  }
  [[nodiscard]] std::size_t port_index() const { return port_index_; }
  double process(Batch&) override { return 0.0; }

 private:
  std::size_t port_index_;
};

/// basic_apps.Statistics-style counter app.
class StatisticsApp final : public App {
 public:
  explicit StatisticsApp(std::string name)
      : App(std::move(name), 10, 2.0) {}
  [[nodiscard]] const char* class_name() const override {
    return "basic_apps.Statistics";
  }
  double process(Batch& batch) override {
    packets_ += batch.size();
    for (const auto& p : batch) bytes_ += p->size();
    return 0.0;
  }
  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint64_t packets_{0};
  std::uint64_t bytes_{0};
};

}  // namespace nfvsb::switches::snabb
