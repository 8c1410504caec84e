// FastClick element framework (reduced Click).
//
// Elements form a push graph; a batch (FastClick processes batches, not
// single packets) enters at a FromDPDKDevice and is pushed downstream until
// it reaches a ToDPDKDevice. Each element charges a fixed per-call
// cost plus a per-packet cost.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pkt/packet.h"

namespace nfvsb::switches::fastclick {

class FastClickSwitch;

/// Mutable batch traveling the graph, by reference: elements move out what
/// they pass on (or emit), and handles left behind are freed by whoever
/// owns the batch once the push returns.
using Batch = std::vector<pkt::PacketHandle>;

/// Side-channel the terminal elements use to emit packets / report state.
/// FastClickSwitch keeps one and reuses it every round, so `emitted` stops
/// allocating once it has held a full burst.
struct PushContext {
  /// Accumulated processing cost for this traversal, in ns.
  double cost_ns{0};
  /// (tx port index, packet) pairs emitted by ToDPDKDevice elements.
  std::vector<std::pair<std::size_t, pkt::PacketHandle>> emitted;
  /// Packets explicitly discarded.
  std::uint64_t discarded{0};
};

class Element {
 public:
  Element(std::string name, double fixed_ns, double per_packet_ns)
      : name_(std::move(name)),
        fixed_ns_(fixed_ns),
        per_packet_ns_(per_packet_ns) {}
  virtual ~Element() = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] virtual const char* class_name() const = 0;

  /// Connect the output to `next`'s input.
  void connect(Element& next) { next_ = &next; }
  [[nodiscard]] Element* next() const { return next_; }

  /// Process and forward the batch. Implementations must charge their cost
  /// (charge()) and usually call push_next().
  virtual void push(PushContext& ctx, Batch& batch) = 0;

 protected:
  void charge(PushContext& ctx, std::size_t n) const {
    ctx.cost_ns += fixed_ns_ + per_packet_ns_ * static_cast<double>(n);
  }
  void push_next(PushContext& ctx, Batch& batch) {
    if (next_ != nullptr && !batch.empty()) {
      next_->push(ctx, batch);
    } else {
      ctx.discarded += batch.size();  // dangling output: packets die
    }
  }

 private:
  std::string name_;
  double fixed_ns_;
  double per_packet_ns_;
  Element* next_{nullptr};
};

/// Owns elements; maps device numbers to entry elements.
class Router {
 public:
  Element& add(std::unique_ptr<Element> e);
  [[nodiscard]] Element* find(const std::string& name);
  [[nodiscard]] std::size_t size() const { return elements_.size(); }

  /// Render the element graph back as Click-language connection lines
  /// (declarations as `name :: Class`, wiring as `a -> b`).
  [[nodiscard]] std::string unparse() const;

  /// Registered by FromDPDKDevice at construction.
  void register_input(std::size_t device, Element& entry);
  [[nodiscard]] Element* input_for(std::size_t device);

 private:
  std::vector<std::unique_ptr<Element>> elements_;
  std::vector<std::pair<std::size_t, Element*>> inputs_;
};

}  // namespace nfvsb::switches::fastclick
