// BESS module framework (reduced).
//
// BESS composes "modules" into a dataflow graph driven by the bessd
// scheduler. Modules are deliberately generic ("more general and less
// specialized than those of FastClick", Sec. 3.2). The paper's
// configurations are short pipelines: QueueInc -> QueueOut between PMDPorts
// and vhost PMDPorts, which is why BESS does the least per-packet work of
// all seven switches and posts the best p2p numbers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
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
  std::uint64_t discarded{0};
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

  /// Connect output gate `ogate` to `next` (bessctl's `a:1 -> b`).
  void connect(Module& next, std::size_t ogate = 0) {
    if (ogates_.size() <= ogate) ogates_.resize(ogate + 1, nullptr);
    ogates_[ogate] = &next;
  }
  [[nodiscard]] Module* next(std::size_t ogate = 0) const {
    return ogate < ogates_.size() ? ogates_[ogate] : nullptr;
  }
  [[nodiscard]] std::size_t nogates() const { return ogates_.size(); }

  virtual void process(TaskContext& ctx, Batch& batch) = 0;

 protected:
  void charge(TaskContext& ctx, std::size_t n) const {
    ctx.cost_ns += fixed_ns_ + per_packet_ns_ * static_cast<double>(n);
  }
  void forward(TaskContext& ctx, Batch& batch, std::size_t ogate = 0) {
    Module* out = next(ogate);
    if (out != nullptr && !batch.empty()) {
      out->process(ctx, batch);
    } else {
      ctx.discarded += batch.size();
    }
  }

 private:
  std::string name_;
  double fixed_ns_;
  double per_packet_ns_;
  std::vector<Module*> ogates_;
};

/// Owns modules; maps port queues to entry modules (QueueInc).
class Pipeline {
 public:
  Module& add(std::unique_ptr<Module> m);
  [[nodiscard]] Module* find(const std::string& name);
  [[nodiscard]] std::size_t size() const { return modules_.size(); }

  void register_input(std::size_t port, Module& entry);
  [[nodiscard]] Module* input_for(std::size_t port);

  /// Render the module graph like `bessctl show pipeline`.
  [[nodiscard]] std::string show() const;

 private:
  std::vector<std::unique_ptr<Module>> modules_;
  std::vector<std::pair<std::size_t, Module*>> inputs_;
};

}  // namespace nfvsb::switches::bess
