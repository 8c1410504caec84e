// Ethernet / IPv4 / UDP header views over raw packet bytes.
//
// Network byte order on the wire; accessors convert at the edge. Header
// structs are *views* (non-owning) so switches can parse and rewrite in
// place, exactly like a real data plane.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace nfvsb::pkt {

struct MacAddress {
  std::array<std::uint8_t, 6> bytes{};

  auto operator<=>(const MacAddress&) const = default;

  [[nodiscard]] bool is_broadcast() const {
    for (auto b : bytes)
      if (b != 0xff) return false;
    return true;
  }
  [[nodiscard]] bool is_multicast() const { return (bytes[0] & 0x01) != 0; }

  [[nodiscard]] std::uint64_t as_u64() const {
    std::uint64_t v = 0;
    for (auto b : bytes) v = (v << 8) | b;
    return v;
  }
  static MacAddress from_u64(std::uint64_t v) {
    MacAddress m;
    for (int i = 5; i >= 0; --i) {
      m.bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v & 0xff);
      v >>= 8;
    }
    return m;
  }
  /// Parses "aa:bb:cc:dd:ee:ff"; nullopt on malformed input.
  static std::optional<MacAddress> parse(std::string_view s);
};

struct Ipv4Address {
  std::uint32_t addr{0};  // host byte order

  auto operator<=>(const Ipv4Address&) const = default;
  /// Parses dotted quad; nullopt on malformed input.
  static std::optional<Ipv4Address> parse(std::string_view s);
};

inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEtherTypeArp = 0x0806;
inline constexpr std::uint8_t kIpProtoUdp = 17;
inline constexpr std::uint8_t kIpProtoTcp = 6;

inline constexpr std::size_t kEthHeaderBytes = 14;
inline constexpr std::size_t kIpv4HeaderBytes = 20;
inline constexpr std::size_t kUdpHeaderBytes = 8;

/// Mutable view over an Ethernet header at the start of `frame`.
class EthHeader {
 public:
  explicit EthHeader(std::span<std::uint8_t> frame) : b_(frame) {}

  [[nodiscard]] bool valid() const { return b_.size() >= kEthHeaderBytes; }

  [[nodiscard]] MacAddress dst() const;
  [[nodiscard]] MacAddress src() const;

  void set_dst(const MacAddress& m);
  void set_src(const MacAddress& m);
  void set_ether_type(std::uint16_t t);

  /// Bytes after the Ethernet header.
  [[nodiscard]] std::span<std::uint8_t> payload() const {
    return b_.subspan(kEthHeaderBytes);
  }

 private:
  std::span<std::uint8_t> b_;
};

/// Mutable view over an IPv4 header (no options supported — IHL must be 5).
class Ipv4Header {
 public:
  explicit Ipv4Header(std::span<std::uint8_t> bytes) : b_(bytes) {}

  [[nodiscard]] std::uint8_t protocol() const { return b_[9]; }

  void set_protocol(std::uint8_t p) { b_[9] = p; }
  void set_src(Ipv4Address a);
  void set_dst(Ipv4Address a);
  void set_total_length(std::uint16_t len);

  /// Recompute and store the header checksum.
  void update_checksum();
  /// True iff the stored checksum matches the header contents.
  [[nodiscard]] bool checksum_ok() const;

  [[nodiscard]] std::span<std::uint8_t> payload() const {
    return b_.subspan(kIpv4HeaderBytes);
  }

  /// Initialize a fresh header with sane defaults (version/IHL/TTL 64).
  void init();

 private:
  std::span<std::uint8_t> b_;
};

/// Mutable view over a UDP header.
class UdpHeader {
 public:
  explicit UdpHeader(std::span<std::uint8_t> bytes) : b_(bytes) {}

  void set_src_port(std::uint16_t p);
  void set_dst_port(std::uint16_t p);
  void set_length(std::uint16_t l);

  [[nodiscard]] std::span<std::uint8_t> payload() const {
    return b_.subspan(kUdpHeaderBytes);
  }

 private:
  std::span<std::uint8_t> b_;
};

/// Parsed 5-tuple key used by flow caches / classifiers.
struct FiveTuple {
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint16_t src_port{0};
  std::uint16_t dst_port{0};
  std::uint8_t protocol{0};

  auto operator<=>(const FiveTuple&) const = default;
  [[nodiscard]] std::uint64_t hash() const;
};

/// Parse a full Ethernet/IPv4/UDP frame into a 5-tuple. nullopt when the
/// frame is not IPv4/UDP or is truncated.
std::optional<FiveTuple> parse_five_tuple(std::span<const std::uint8_t> frame);

}  // namespace nfvsb::pkt
