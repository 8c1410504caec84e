// Built-in FastClick elements: the ones the paper's configuration uses
// (FromDPDKDevice(0) -> EtherMirror() -> ToDPDKDevice(1)).
#pragma once

#include "switches/fastclick/element.h"

namespace nfvsb::switches::fastclick {

/// Entry element bound to a switch port ("device").
class FromDPDKDevice final : public Element {
 public:
  FromDPDKDevice(std::string name, std::size_t device)
      : Element(std::move(name), 30, 4.0), device_(device) {}
  [[nodiscard]] const char* class_name() const override {
    return "FromDPDKDevice";
  }
  [[nodiscard]] std::size_t device() const { return device_; }

  void push(PushContext& ctx, Batch& batch) override {
    charge(ctx, batch.size());
    push_next(ctx, batch);
  }

 private:
  std::size_t device_;
};

/// Terminal element: emits the batch on a switch port.
class ToDPDKDevice final : public Element {
 public:
  ToDPDKDevice(std::string name, std::size_t device)
      : Element(std::move(name), 25, 3.5), device_(device) {}
  [[nodiscard]] const char* class_name() const override {
    return "ToDPDKDevice";
  }
  [[nodiscard]] std::size_t device() const { return device_; }

  void push(PushContext& ctx, Batch& batch) override {
    charge(ctx, batch.size());
    for (auto& p : batch) ctx.emitted.emplace_back(device_, std::move(p));
  }

 private:
  std::size_t device_;
};

/// Swaps Ethernet source/destination addresses (the header-touching work
/// the paper notes FastClick does on top of pure forwarding, Sec. 5.2).
class EtherMirror final : public Element {
 public:
  explicit EtherMirror(std::string name) : Element(std::move(name), 12, 6.0) {}
  [[nodiscard]] const char* class_name() const override {
    return "EtherMirror";
  }
  void push(PushContext& ctx, Batch& batch) override;
};

}  // namespace nfvsb::switches::fastclick
