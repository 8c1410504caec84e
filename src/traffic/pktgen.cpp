#include "traffic/pktgen.h"

#include <cassert>
#include <string>

#include "core/metrics.h"
#include "core/simulator.h"
#include "core/trace_sink.h"
#include "pkt/packet_pool.h"

namespace nfvsb::traffic {

PktGen::PktGen(core::Simulator& sim, pkt::PacketPool& pool, Config cfg)
    : sim_(sim),
      pool_(pool),
      cfg_(cfg),
      frame_(cfg.frame) {
  if (core::MetricSink* reg = core::metrics()) {
    registry_ = reg;
    const std::string base = "gen/pktgen." + std::to_string(cfg_.origin);
    reg->add_counter(this, base + "/tx_sent", &tx_sent_);
    reg->add_counter(this, base + "/tx_failed", &tx_failed_);
  }
}

PktGen::~PktGen() {
  if (registry_ != nullptr) registry_->remove(this);
}

void PktGen::attach_tx(ring::GuestPort& port) {
  assert(tx_port_ == nullptr);
  tx_port_ = &port;
}

core::SimDuration PktGen::gap() {
  const double prep_ns =
      cfg_.prep_fixed_ns +
      cfg_.prep_byte_ns * static_cast<double>(cfg_.frame.frame_bytes);
  double gap_ps = prep_ns * static_cast<double>(core::kNanosecond);
  if (cfg_.rate_pps > 0) {
    gap_ps = std::max(gap_ps,
                      static_cast<double>(core::kSecond) / cfg_.rate_pps);
  }
  // Carry the sub-picosecond remainder to the next re-arm: truncating it
  // every frame overstated the achieved rate by up to 1 ps/frame.
  const double exact = gap_ps + pace_frac_;
  const auto whole = static_cast<core::SimDuration>(exact);
  pace_frac_ = exact - static_cast<double>(whole);
  return whole;
}

void PktGen::start_tx(core::SimTime at, core::SimTime until) {
  assert(tx_port_ != nullptr && "attach TX first");
  tx_until_ = until;
  next_probe_at_ = at;
  // One recurring timer paces the whole run; re-arms are allocation-free.
  // Self-stopping at tx_until_, so the timer id is deliberately dropped.
  (void)sim_.schedule_every(at - sim_.now(),
                            core::Simulator::RecurringFn([this] {
                              if (sim_.now() >= tx_until_) {
                                return core::Simulator::kStopTimer;
                              }
                              emit_one();
                              return gap();
                            }));
}

void PktGen::emit_one() {
  pkt::PacketHandle p = pool_.allocate();
  if (p) {
    p->seq = ++seq_;
    frame_.stamp(*p, p->seq);
    p->origin = cfg_.origin;
    if (core::TraceSink* t = core::tracer()) {
      if (t->sample_hit(seq_)) p->trace_id = t->next_packet_id();
    }
    if (cfg_.probe_interval > 0 && sim_.now() >= next_probe_at_) {
      p->probe_id = ++probe_seq_;
      p->sw_timestamp = sim_.now();
      next_probe_at_ = sim_.now() + cfg_.probe_interval;
    }
    if (tx_port_->tx(std::move(p))) {
      ++tx_sent_;
    } else {
      ++tx_failed_;  // netmap ring full: pkt-gen spins and retries
    }
  }
}

}  // namespace nfvsb::traffic
