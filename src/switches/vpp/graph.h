// VPP's vector-processing forwarding graph (reduced).
//
// Packets move through the graph as a VECTOR (the whole burst at once);
// each node charges a per-call fixed cost plus a per-packet cost. This is
// the vectorization effect the VPP papers describe: instruction-cache and
// fixed costs amortize across the vector, so bigger bursts are cheaper per
// packet.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pkt/packet.h"

namespace nfvsb::switches::vpp {

/// Sentinel: no node has claimed an egress for this packet yet; packets
/// still carrying it after the graph runs hit the implicit error-drop.
inline constexpr std::size_t kNoTxPort = static_cast<std::size_t>(-1);

/// Per-packet context while traversing the graph.
struct VectorEntry {
  pkt::PacketHandle pkt;
  std::size_t rx_port{0};
  std::size_t tx_port{kNoTxPort};
  bool drop{false};
};

using Vector = std::vector<VectorEntry>;

class Node {
 public:
  Node(std::string name, double fixed_ns, double per_packet_ns)
      : name_(std::move(name)),
        fixed_ns_(fixed_ns),
        per_packet_ns_(per_packet_ns) {}
  virtual ~Node() = default;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Process the vector in place; returns extra cost beyond the standard
  /// fixed + per-packet charges (usually 0).
  virtual double process(Vector& frame) = 0;

  /// Standard charge for a call over `n` packets.
  [[nodiscard]] double charge_ns(std::size_t n) const {
    return fixed_ns_ + per_packet_ns_ * static_cast<double>(n);
  }

  // `show runtime`-style counters.
  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] std::uint64_t vectors() const { return vectors_; }
  [[nodiscard]] double avg_vector_size() const {
    return calls_ ? static_cast<double>(vectors_) / static_cast<double>(calls_)
                  : 0.0;
  }
  void count(std::size_t n) {
    ++calls_;
    vectors_ += n;
  }

 private:
  std::string name_;
  double fixed_ns_;
  double per_packet_ns_;
  std::uint64_t calls_{0};
  std::uint64_t vectors_{0};
};

/// A linear feature arc: nodes applied in order to each vector.
class Graph {
 public:
  Node& add(std::unique_ptr<Node> n) {
    nodes_.push_back(std::move(n));
    return *nodes_.back();
  }

  /// Run the vector through all nodes; returns total cost in ns.
  double run(Vector& frame);

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Node& node(std::size_t i) { return *nodes_.at(i); }

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace nfvsb::switches::vpp
