// The t4p4s packet pipeline: parse -> match/action stages -> deparse.
//
// t4p4s compiles P4 programs into C through a hardware abstraction layer;
// the paper attributes its modest throughput and poor tail latency to "the
// overhead of implementing multiple stages, including header
// parsing/de-parsing and flow table lookup" and to the HAL indirection.
// Here the stages are explicit: a real parser extracts headers into a PHV
// (parsed header vector) struct, tables match on PHV fields, the deparser
// writes modified fields back to the frame.
#pragma once

#include <optional>
#include <span>

#include "pkt/headers.h"
#include "switches/t4p4s/tables.h"

namespace nfvsb::switches::t4p4s {

/// Parsed header vector.
struct Phv {
  bool eth_valid{false};
  pkt::MacAddress eth_src;
  pkt::MacAddress eth_dst;
  std::uint16_t eth_type{0};
  bool ipv4_valid{false};
  pkt::Ipv4Address ip_src;
  pkt::Ipv4Address ip_dst;
  std::uint8_t ttl{0};
};

/// Parser stage: extract ethernet (+ipv4) into the PHV.
Phv parse(std::span<const std::uint8_t> frame);

/// Deparser stage: write mutated PHV fields back into the frame. Only
/// fields the actions may change (dst MAC) are materialized.
void deparse(const Phv& phv, std::span<std::uint8_t> frame);

/// Per-stage nominal costs (ns/packet) of the generated code; the HAL
/// indirection tax is part of why each stage is pricier than the
/// hand-written equivalents in other switches.
struct StageCosts {
  double parse_ns{23};
  double table_lookup_ns{26};
  double deparse_ns{22};
};

}  // namespace nfvsb::switches::t4p4s
