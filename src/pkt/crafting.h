// Frame crafting helpers used by traffic generators (MoonGen / pkt-gen
// models): build valid Ethernet/IPv4/UDP frames of a requested wire size.
#pragma once

#include <array>
#include <cstdint>

#include "pkt/headers.h"
#include "pkt/packet.h"

namespace nfvsb::pkt {

struct FrameSpec {
  std::uint32_t frame_bytes{64};  ///< total L2 frame size (no FCS modelled)
  MacAddress src_mac{MacAddress::from_u64(0x020000000001ULL)};
  MacAddress dst_mac{MacAddress::from_u64(0x020000000002ULL)};
  Ipv4Address src_ip{Ipv4Address::parse("10.0.0.1").value()};
  Ipv4Address dst_ip{Ipv4Address::parse("10.0.0.2").value()};
  std::uint16_t src_port{1234};
  std::uint16_t dst_port{5678};
};

/// Write a complete UDP-in-IPv4-in-Ethernet frame into `p` per `spec`,
/// including a valid IPv4 header checksum. The UDP payload is zero-filled;
/// generators overwrite the first bytes with sequence numbers / timestamps.
void craft_udp_frame(Packet& p, const FrameSpec& spec);

/// One crafted frame kept inline (no heap allocation), for generators that
/// send copies of it, like MoonGen's pre-filled mempools: stamp() copies it
/// into a packet and patches the per-packet fields. No checksum needs
/// fixing: the IPv4 header checksum does not cover the UDP ports, and the
/// UDP checksum of a crafted frame is 0 (none).
class FrameTemplate {
 public:
  explicit FrameTemplate(const FrameSpec& spec);

  /// Write the frame into `p` with sequence tag `seq`: byte-identical to
  /// craft_udp_frame(p, spec) followed by write_payload_seq(p, seq).
  void stamp(Packet& p, std::uint64_t seq) const;
  /// As stamp(p, seq), with UDP source port `src_port` instead of the
  /// spec's.
  void stamp(Packet& p, std::uint64_t seq, std::uint16_t src_port) const;

 private:
  std::array<std::uint8_t, kMaxFrameBytes> bytes_{};
  std::uint32_t size_;
};

/// Offset of the UDP payload within a crafted frame.
inline constexpr std::size_t kUdpPayloadOffset =
    kEthHeaderBytes + kIpv4HeaderBytes + kUdpHeaderBytes;

/// Minimum frame that still carries a 16-byte measurement payload.
inline constexpr std::uint32_t kMinCraftedFrame = 64;

/// Write the 8-byte big-endian sequence tag at the payload start.
void write_payload_seq(Packet& p, std::uint64_t seq);

}  // namespace nfvsb::pkt
