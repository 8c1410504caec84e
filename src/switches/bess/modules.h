// The BESS modules of the paper's configuration (appendix A.1: PMDPort +
// QueueInc -> QueueOut).
#pragma once

#include "switches/bess/module.h"

namespace nfvsb::switches::bess {

/// QueueInc: entry module pulling from a port queue (bound to its port by
/// Pipeline::register_input).
class QueueInc final : public Module {
 public:
  explicit QueueInc(std::string name) : Module(std::move(name), 26, 2.2) {}
  [[nodiscard]] const char* class_name() const override { return "QueueInc"; }

  void process(TaskContext& ctx, Batch& batch) override {
    charge(ctx, batch.size());
    forward(ctx, batch);
  }
};

/// QueueOut: terminal module pushing to a port queue.
class QueueOut final : public Module {
 public:
  QueueOut(std::string name, std::size_t port)
      : Module(std::move(name), 22, 2.0), port_(port) {}
  [[nodiscard]] const char* class_name() const override { return "QueueOut"; }

  void process(TaskContext& ctx, Batch& batch) override {
    charge(ctx, batch.size());
    for (auto& p : batch) ctx.emitted.emplace_back(port_, std::move(p));
  }

 private:
  std::size_t port_;
};

}  // namespace nfvsb::switches::bess
