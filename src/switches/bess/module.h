// BESS module framework (reduced).
//
// BESS composes "modules" into a dataflow graph driven by the bessd
// scheduler. Modules are deliberately generic ("more general and less
// specialized than those of FastClick", Sec. 3.2). The paper's
// configurations are short pipelines: QueueInc -> QueueOut between PMDPorts
// and vhost PMDPorts, which is why BESS does the least per-packet work of
// all seven switches and posts the best p2p numbers.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pkt/packet.h"

namespace nfvsb::switches::bess {

/// A batch travels the module graph by reference: modules move out what
/// they pass on (or emit), and handles left behind are freed by whoever
/// owns the batch once the traversal returns.
using Batch = std::vector<pkt::PacketHandle>;

/// Per-traversal state. BessSwitch keeps one and reuses it every round, so
/// `emitted` stops allocating once it has held a full burst.
struct TaskContext {
  double cost_ns{0};
  std::vector<std::pair<std::size_t, pkt::PacketHandle>> emitted;
};

class Module {
 public:
  Module(std::string name, double fixed_ns, double per_packet_ns)
      : name_(std::move(name)),
        fixed_ns_(fixed_ns),
        per_packet_ns_(per_packet_ns) {}
  virtual ~Module() = default;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] virtual const char* class_name() const = 0;

  /// Connect the output gate to `next` (bessctl's `a -> b`).
  void connect(Module& next) { next_ = &next; }
  [[nodiscard]] Module* next() const { return next_; }

  virtual void process(TaskContext& ctx, Batch& batch) = 0;

 protected:
  void charge(TaskContext& ctx, std::size_t n) const {
    ctx.cost_ns += fixed_ns_ + per_packet_ns_ * static_cast<double>(n);
  }
  /// Pass the batch on; without a next module it stays behind, and its
  /// owner frees it as discards.
  void forward(TaskContext& ctx, Batch& batch) {
    if (next_ != nullptr && !batch.empty()) next_->process(ctx, batch);
  }

 private:
  std::string name_;
  double fixed_ns_;
  double per_packet_ns_;
  Module* next_{nullptr};
};

/// Owns modules; maps port queues to entry modules (QueueInc).
class Pipeline {
 public:
  Module& add(std::unique_ptr<Module> m);

  void register_input(std::size_t port, Module& entry);
  [[nodiscard]] Module* input_for(std::size_t port);

  /// Render the module graph like `bessctl show pipeline`.
  [[nodiscard]] std::string show() const;

 private:
  std::vector<std::unique_ptr<Module>> modules_;
  std::vector<std::pair<std::size_t, Module*>> inputs_;
};

}  // namespace nfvsb::switches::bess
