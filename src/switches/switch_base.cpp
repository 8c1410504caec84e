#include "switches/switch_base.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "core/metrics.h"
#include "core/simulator.h"
#include "core/trace_sink.h"

namespace nfvsb::switches {

pkt::MacAddress egress_mac(std::size_t port) {
  return pkt::MacAddress::from_u64(0x024d4d4d4d00ULL + (port & 0xff));
}

SwitchBase::SwitchBase(core::Simulator& sim, hw::CpuCore& core,
                       std::string name, CostModel cost)
    : sim_(sim),
      core_(core),
      name_(std::move(name)),
      cost_(cost),
      rng_(sim.rng().split()) {
  if (core::MetricSink* reg = core::metrics()) {
    registry_ = reg;
    reg->add_counter(this, "switch/" + name_ + "/rx_packets",
                     &stats_.rx_packets);
    reg->add_counter(this, "switch/" + name_ + "/tx_packets",
                     &stats_.tx_packets);
    reg->add_counter(this, "switch/" + name_ + "/tx_drops", &stats_.tx_drops);
    reg->add_counter(this, "switch/" + name_ + "/discards", &stats_.discards);
    reg->add_counter(this, "switch/" + name_ + "/rounds", &stats_.rounds);
  }
}

SwitchBase::~SwitchBase() {
  if (registry_ != nullptr) registry_->remove(this);
}

ring::Port& SwitchBase::attach_nic(hw::NicPort& nic) {
  auto p = std::make_unique<ring::Port>(
      name_ + ":" + nic.name(), ring::PortKind::kPhysical, nic.rx_ring(),
      nic.tx_ring());
  return add_port(std::move(p));
}

ring::VhostUserPort& SwitchBase::add_vhost_user_port(
    const std::string& port_name) {
  auto p = std::make_unique<ring::VhostUserPort>(name_ + ":" + port_name);
  auto& ref = *p;
  add_port(std::move(p));
  return ref;
}

ring::PtnetPort& SwitchBase::add_ptnet_port(const std::string& port_name) {
  auto p = std::make_unique<ring::PtnetPort>(name_ + ":" + port_name);
  auto& ref = *p;
  add_port(std::move(p));
  return ref;
}

ring::Port& SwitchBase::add_port(std::unique_ptr<ring::Port> port) {
  assert(!started_ && "add ports before start()");
  ports_.push_back(std::move(port));
  wait_since_.push_back(0);
  return *ports_.back();
}

std::size_t SwitchBase::index_of(const ring::Port& p) const {
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i].get() == &p) return i;
  }
  return std::numeric_limits<std::size_t>::max();
}

void SwitchBase::start() {
  assert(!started_);
  started_ = true;
  last_served_ = ports_.size();
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    ports_[i]->in().set_watcher(
        [this, i](bool became_nonempty) { on_enqueue(i, became_nonempty); });
  }
  // Traffic may already be buffered (ports attached to running NICs).
  if (any_input_ready()) wake(0);
}

bool SwitchBase::port_ready(std::size_t i) {
  auto& in = ports_[i]->in();
  if (in.empty()) return false;
  const core::SimDuration timeout =
      cost_.batch_timeout_for(ports_[i]->kind());
  if (timeout <= 0) return true;
  if (in.size() >= static_cast<std::size_t>(cost_.burst)) return true;
  return sim_.now() - wait_since_[i] >= timeout;
}

bool SwitchBase::any_input_ready() {
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (port_ready(i)) return true;
  }
  return false;
}

void SwitchBase::on_enqueue(std::size_t port_idx, bool became_nonempty) {
  if (became_nonempty) {
    // A frame put in by a later read (a wire source's, a pulled
    // generator's) waits from its arrival.
    wait_since_[port_idx] = ports_[port_idx]->in().arrival_time(sim_.now());
  }
  if (active_) return;
  const bool physical = ports_[port_idx]->kind() == ring::PortKind::kPhysical;
  core::SimDuration wake_latency = cost_.wakeup_for(ports_[port_idx]->kind());
  if (physical && cost_.interrupt_coalescing > 0) {
    // ixgbe ITR: the next RX interrupt cannot fire sooner than ITR after
    // the previous one, so wakes are pushed out under sustained load.
    const core::SimTime earliest = last_irq_ + cost_.interrupt_coalescing;
    if (sim_.now() + wake_latency < earliest) {
      wake_latency = earliest - sim_.now();
    }
  }
  if (port_ready(port_idx)) {
    if (physical) last_irq_ = sim_.now() + wake_latency;
    wake(wake_latency);
  } else if (became_nonempty &&
             cost_.batch_timeout_for(ports_[port_idx]->kind()) > 0) {
    // Batch-assembly timeout: re-check when the oldest packet of this port
    // has waited long enough.
    sim_.post_in(
        cost_.batch_timeout_for(ports_[port_idx]->kind()) + wake_latency,
        [this] {
          if (!active_ && any_input_ready()) wake(0);
        });
  }
}

void SwitchBase::set_active(bool active) {
  active_ = active;
  for (const auto& p : ports_) p->in().set_consumer_busy(active);
}

void SwitchBase::wake(core::SimDuration latency) {
  set_active(true);
  if (latency > 0) {
    sim_.post_in(latency, [this] { run_round(); });
  } else {
    run_round();
  }
}

void SwitchBase::direct_tx(ring::Port& p,
                           std::vector<pkt::PacketHandle>& pkts) {
  const std::size_t sent = p.out().enqueue_run(
      pkts.begin(), pkts.end(),
      [](pkt::PacketHandle& h) { return std::move(h); });
  stats_.tx_packets += sent;
  stats_.tx_drops += pkts.size() - sent;
  pkts.clear();
}

void SwitchBase::run_round() {
  // Pick the next ready input port round-robin.
  std::size_t chosen = ports_.size();
  for (std::size_t k = 0; k < ports_.size(); ++k) {
    const std::size_t i = (rr_next_ + k) % ports_.size();
    if (port_ready(i)) {
      chosen = i;
      break;
    }
  }
  if (chosen == ports_.size()) {
    set_active(false);
    // Inputs may be buffered but not yet "ready" (batch assembly); arm a
    // deadline check so they are not stranded.
    arm_timeout_checks();
    return;
  }
  rr_next_ = (chosen + 1) % ports_.size();

  ring::Port& in = *ports_[chosen];
  assert(batch_.empty() && out_.empty());
  in.in().dequeue_burst(batch_, static_cast<std::size_t>(cost_.burst));
  double cost_ns = cost_.batch_fixed_ns;
  double byte_ns = 0.0;  // byte-dependent portion, alternation-scalable
  for (const pkt::PacketHandle& p : batch_) {
    cost_ns += cost_.costs_for(in.kind()).rx_ns;
    byte_ns += cost_.rx_byte_cost_ns(in.kind(), p->size());
  }
  wait_since_[chosen] = sim_.now();  // ring may still hold packets
  assert(!batch_.empty());
  const std::size_t n_in = batch_.size();
  stats_.rx_packets += n_in;
  cost_ns += cost_.pipeline_ns * static_cast<double>(n_in);

  cost_ns += process_batch(in, batch_, out_);
  batch_.clear();  // frees the datapath's discards

  std::size_t forwarded = 0;
  for (const Tx& t : out_) {
    if (t.out != nullptr) {
      cost_ns += cost_.costs_for(t.out->kind()).tx_ns;
      byte_ns += cost_.tx_byte_cost_ns(t.out->kind(), t.pkt->size());
      ++forwarded;
    }
  }
  stats_.discards += n_in - forwarded;

  // Bidirectional interleaving defeats the copy path's cache locality.
  if (last_served_ != ports_.size() && last_served_ != chosen) {
    byte_ns *= cost_.alternation_byte_factor;
  }
  last_served_ = chosen;

  double actual_ns = cost_.sample_round_ns(cost_ns + byte_ns, rng_);
  if (in.kind() == ring::PortKind::kVhostUser && cost_.vhost_stall_prob > 0 &&
      rng_.chance(cost_.vhost_stall_prob)) {
    actual_ns += rng_.exponential(cost_.vhost_stall_mean_us * 1000.0);
  }
  ++stats_.rounds;

  const core::SimTime round_start = sim_.now();
  core_.submit(core::from_ns(actual_ns), [this, round_start, n_in] {
    // One burst per run of outputs bound for the same port, in order.
    for (auto run = out_.begin(); run != out_.end();) {
      ring::Port* const port = run->out;
      const auto end = std::find_if(
          run, out_.end(), [port](const Tx& t) { return t.out != port; });
      if (port != nullptr) {  // else datapath discards
        const std::size_t sent = port->out().enqueue_run(
            run, end, [](Tx& t) { return std::move(t.pkt); });
        stats_.tx_packets += sent;
        // Wasted work: the cost is already paid.
        stats_.tx_drops += static_cast<std::size_t>(end - run) - sent;
      }
      run = end;
    }
    out_.clear();  // before continue_or_idle() may start the next round
    if (core::TraceSink* tr = core::tracer()) {
      tr->complete(tr->track("switch/" + name_), "round", round_start,
                   sim_.now() - round_start, n_in);
    }
    continue_or_idle();
  });
}

void SwitchBase::continue_or_idle() {
  // Decide what drives the next round. Virtual-port work and full
  // physical backlogs are served immediately (busy loop / work
  // conservation); a partial physical backlog on an interrupt-driven
  // switch waits for the next ITR-gated interrupt.
  bool virtual_ready = false;
  bool physical_ready = false;
  bool physical_backlog_full = false;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (!port_ready(i)) continue;
    if (ports_[i]->kind() == ring::PortKind::kPhysical) {
      physical_ready = true;
      if (ports_[i]->in().size() >= static_cast<std::size_t>(cost_.burst)) {
        physical_backlog_full = true;
      }
    } else {
      virtual_ready = true;
    }
  }
  if (virtual_ready || physical_backlog_full ||
      (physical_ready && cost_.interrupt_coalescing <= 0)) {
    run_round();
    return;
  }
  if (physical_ready) {
    // Interrupt-driven: next service at the next ITR boundary.
    const core::SimTime at =
        std::max(sim_.now(), last_irq_ + cost_.interrupt_coalescing);
    last_irq_ = at;
    sim_.post_at(at, [this] { run_round(); });
    return;
  }
  set_active(false);
  arm_timeout_checks();
}

void SwitchBase::arm_timeout_checks() {
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    const core::SimDuration timeout =
        cost_.batch_timeout_for(ports_[i]->kind());
    if (timeout <= 0 || ports_[i]->in().empty()) continue;
    sim_.post_at(wait_since_[i] + timeout, [this] {
      if (!active_ && any_input_ready()) wake(0);
    });
  }
}

}  // namespace nfvsb::switches
