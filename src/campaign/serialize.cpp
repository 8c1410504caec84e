#include "campaign/serialize.h"

#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

namespace nfvsb::campaign {
namespace {

// %.17g: shortest format guaranteed to round-trip an IEEE-754 double.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::string config_to_json(const scenario::ScenarioConfig& cfg) {
  std::ostringstream j;
  j << "{\"kind\":\"" << scenario::to_string(cfg.kind) << "\",\"sut\":\""
    << switches::to_string(cfg.sut) << "\",\"frame_bytes\":" << cfg.frame_bytes
    << ",\"bidirectional\":" << (cfg.bidirectional ? "true" : "false")
    << ",\"chain_length\":" << cfg.chain_length
    << ",\"reverse\":" << (cfg.reverse ? "true" : "false")
    << ",\"rate_pps\":" << fmt_double(cfg.rate_pps)
    << ",\"num_flows\":" << cfg.num_flows
    << ",\"sut_workers\":" << cfg.sut_workers
    << ",\"probe_interval_ps\":" << cfg.probe_interval
    << ",\"nic_ring_depth\":" << cfg.nic_ring_depth
    << ",\"l2fwd_drain_ps\":" << cfg.l2fwd_drain
    << ",\"containers\":" << (cfg.containers ? "true" : "false")
    << ",\"warmup_ps\":" << cfg.warmup << ",\"measure_ps\":" << cfg.measure
    << ",\"seed\":" << cfg.seed;
  if (cfg.observe) j << ",\"observe\":true";
  if (cfg.queue_sample_period > 0) {
    j << ",\"queue_sample_period_ps\":" << cfg.queue_sample_period;
  }
  if (!cfg.trace_path.empty()) {
    j << ",\"trace_path\":\"" << json_escape(cfg.trace_path)
      << "\",\"trace_packet_sample\":" << cfg.trace_packet_sample;
  }
  j << "}";
  return j.str();
}

std::string result_to_json(const scenario::ScenarioResult& r) {
  std::ostringstream j;
  j << "{";
  if (r.skipped) {
    j << "\"skipped\":\"" << json_escape(*r.skipped) << "\",";
  } else {
    j << "\"skipped\":null,";
  }
  j << "\"fwd_gbps\":" << fmt_double(r.fwd.gbps)
    << ",\"fwd_mpps\":" << fmt_double(r.fwd.mpps)
    << ",\"fwd_rx_packets\":" << r.fwd.rx_packets
    << ",\"rev_gbps\":" << fmt_double(r.rev.gbps)
    << ",\"rev_mpps\":" << fmt_double(r.rev.mpps)
    << ",\"rev_rx_packets\":" << r.rev.rx_packets
    << ",\"lat_samples\":" << r.lat_samples
    << ",\"lat_avg_us\":" << fmt_double(r.lat_avg_us)
    << ",\"lat_std_us\":" << fmt_double(r.lat_std_us)
    << ",\"lat_median_us\":" << fmt_double(r.lat_median_us)
    << ",\"lat_p99_us\":" << fmt_double(r.lat_p99_us)
    << ",\"lat_min_us\":" << fmt_double(r.lat_min_us)
    << ",\"lat_max_us\":" << fmt_double(r.lat_max_us)
    << ",\"nic_imissed\":" << r.nic_imissed
    << ",\"sut_wasted_work\":" << r.sut_wasted_work
    << ",\"sut_discards\":" << r.sut_discards
    << ",\"vnf_wasted_work\":" << r.vnf_wasted_work
    << ",\"vnf_discards\":" << r.vnf_discards
    << ",\"offered_packets\":" << r.offered_packets
    << ",\"delivered_packets\":" << r.delivered_packets
    << ",\"gen_tx_failures\":" << r.gen_tx_failures;
  // Only observed runs carry these, so unobserved result JSON stays
  // byte-identical to the pre-observability format.
  if (r.cleared_packets != 0) {
    j << ",\"cleared_packets\":" << r.cleared_packets;
  }
  if (!r.counters.empty()) {
    j << ",\"counters\":{";
    bool first = true;
    for (const auto& [path, value] : r.counters) {
      if (!first) j << ",";
      first = false;
      j << "\"" << json_escape(path) << "\":" << value;
    }
    j << "}";
  }
  j << "}";
  return j.str();
}

}  // namespace nfvsb::campaign
