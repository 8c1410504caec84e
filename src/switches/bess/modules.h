// Built-in BESS modules used by the paper's configurations (appendix A.1:
// PMDPort + QueueInc -> QueueOut) and by the examples.
#pragma once

#include "core/rng.h"
#include "switches/bess/module.h"

namespace nfvsb::switches::bess {

/// QueueInc: entry module pulling from a port queue.
class QueueInc final : public Module {
 public:
  QueueInc(std::string name, std::size_t port, std::size_t qid = 0)
      : Module(std::move(name), 26, 2.2), port_(port), qid_(qid) {}
  [[nodiscard]] const char* class_name() const override { return "QueueInc"; }
  [[nodiscard]] std::size_t port() const { return port_; }
  [[nodiscard]] std::size_t qid() const { return qid_; }

  void process(TaskContext& ctx, Batch& batch) override {
    charge(ctx, batch.size());
    forward(ctx, batch);
  }

 private:
  std::size_t port_;
  std::size_t qid_;
};

/// QueueOut: terminal module pushing to a port queue.
class QueueOut final : public Module {
 public:
  QueueOut(std::string name, std::size_t port, std::size_t qid = 0)
      : Module(std::move(name), 22, 2.0), port_(port), qid_(qid) {}
  [[nodiscard]] const char* class_name() const override { return "QueueOut"; }
  [[nodiscard]] std::size_t port() const { return port_; }
  [[nodiscard]] std::size_t qid() const { return qid_; }

  void process(TaskContext& ctx, Batch& batch) override {
    charge(ctx, batch.size());
    for (auto& p : batch) ctx.emitted.emplace_back(port_, std::move(p));
  }

 private:
  std::size_t port_;
  std::size_t qid_;
};

/// Sink: discards every packet (left in the batch for its owner to free).
class Sink final : public Module {
 public:
  explicit Sink(std::string name) : Module(std::move(name), 4, 0.5) {}
  [[nodiscard]] const char* class_name() const override { return "Sink"; }

  void process(TaskContext& ctx, Batch& batch) override {
    charge(ctx, batch.size());
    ctx.discarded += batch.size();
  }
};

/// MACSwap: swaps Ethernet src/dst.
class MACSwap final : public Module {
 public:
  explicit MACSwap(std::string name) : Module(std::move(name), 8, 4.5) {}
  [[nodiscard]] const char* class_name() const override { return "MACSwap"; }
  void process(TaskContext& ctx, Batch& batch) override;
};

/// RandomSplit: sends each packet to a uniformly random output gate —
/// BESS's native load-balancing primitive.
class RandomSplit final : public Module {
 public:
  RandomSplit(std::string name, std::size_t gates, core::Rng rng)
      : Module(std::move(name), 10, 3.0), gates_(gates), rng_(rng) {}
  [[nodiscard]] const char* class_name() const override {
    return "RandomSplit";
  }
  void process(TaskContext& ctx, Batch& batch) override;

 private:
  std::size_t gates_;
  core::Rng rng_;
};

/// Update: overwrites `len` bytes at `offset` with a fixed value (BESS's
/// generic header-rewrite module).
class Update final : public Module {
 public:
  Update(std::string name, std::size_t offset,
         std::vector<std::uint8_t> value)
      : Module(std::move(name), 8, 3.5),
        offset_(offset),
        value_(std::move(value)) {}
  [[nodiscard]] const char* class_name() const override { return "Update"; }
  void process(TaskContext& ctx, Batch& batch) override;

 private:
  std::size_t offset_;
  std::vector<std::uint8_t> value_;
};

/// Measure: collects packet/byte statistics (what BESS "only performs very
/// simple tasks like collecting statistics" refers to, Sec. 5.2).
class Measure final : public Module {
 public:
  explicit Measure(std::string name) : Module(std::move(name), 6, 1.2) {}
  [[nodiscard]] const char* class_name() const override { return "Measure"; }

  void process(TaskContext& ctx, Batch& batch) override {
    charge(ctx, batch.size());
    packets_ += batch.size();
    for (const auto& p : batch) bytes_ += p->size();
    forward(ctx, batch);
  }

  [[nodiscard]] std::uint64_t packets() const { return packets_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  std::uint64_t packets_{0};
  std::uint64_t bytes_{0};
};

}  // namespace nfvsb::switches::bess
