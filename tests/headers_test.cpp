// Header parsing/serialization and frame crafting.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pkt/checksum.h"
#include "pkt/crafting.h"
#include "pkt/headers.h"
#include "pkt/packet_pool.h"

namespace nfvsb::pkt {
namespace {

/// The big-endian 16-bit field at `off` in a frame.
std::uint16_t be16(const Packet& p, std::size_t off) {
  return static_cast<std::uint16_t>((p.data()[off] << 8) | p.data()[off + 1]);
}

TEST(MacAddress, ParsesHexOctetsInOrder) {
  const auto m = MacAddress::parse("02:ab:cd:ef:01:99");
  ASSERT_TRUE(m);
  EXPECT_EQ(m->as_u64(), 0x02abcdef0199ULL);
}

TEST(MacAddress, ParseRejectsGarbage) {
  EXPECT_FALSE(MacAddress::parse(""));
  EXPECT_FALSE(MacAddress::parse("02:ab:cd:ef:01"));
  EXPECT_FALSE(MacAddress::parse("02:ab:cd:ef:01:99:77"));
  EXPECT_FALSE(MacAddress::parse("02-ab-cd-ef-01-99"));
  EXPECT_FALSE(MacAddress::parse("zz:ab:cd:ef:01:99"));
}

TEST(MacAddress, U64RoundTrip) {
  const auto m = MacAddress::from_u64(0x0123456789abULL);
  EXPECT_EQ(m.as_u64(), 0x0123456789abULL);
  EXPECT_EQ(m.bytes[0], 0x01);
  EXPECT_EQ(m.bytes[5], 0xab);
}

TEST(MacAddress, BroadcastAndMulticast) {
  EXPECT_TRUE(MacAddress::parse("ff:ff:ff:ff:ff:ff")->is_broadcast());
  EXPECT_TRUE(MacAddress::parse("ff:ff:ff:ff:ff:ff")->is_multicast());
  EXPECT_TRUE(MacAddress::parse("01:00:5e:00:00:01")->is_multicast());
  EXPECT_FALSE(MacAddress::parse("02:00:00:00:00:01")->is_multicast());
}

TEST(Ipv4Address, ParsesDottedQuadInHostOrder) {
  const auto a = Ipv4Address::parse("10.1.255.3");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->addr, 0x0a01ff03u);
}

TEST(Ipv4Address, ParseRejectsGarbage) {
  EXPECT_FALSE(Ipv4Address::parse("10.1.2"));
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.3.4"));
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.256"));
  EXPECT_FALSE(Ipv4Address::parse("a.b.c.d"));
  EXPECT_FALSE(Ipv4Address::parse(""));
}

class CraftedFrame : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  CraftedFrame() : pool_(4) {
    spec_.frame_bytes = GetParam();
    p_ = pool_.allocate();
    craft_udp_frame(*p_, spec_);
  }
  PacketPool pool_;
  FrameSpec spec_;
  PacketHandle p_;
};

TEST_P(CraftedFrame, HasRequestedSize) { EXPECT_EQ(p_->size(), GetParam()); }

TEST_P(CraftedFrame, EthernetFieldsMatchSpec) {
  EthHeader eth(p_->bytes());
  EXPECT_EQ(eth.dst(), spec_.dst_mac);
  EXPECT_EQ(eth.src(), spec_.src_mac);
  EXPECT_EQ(be16(*p_, 12), kEtherTypeIpv4);
}

TEST_P(CraftedFrame, Ipv4ChecksumVerifies) {
  EthHeader eth(p_->bytes());
  Ipv4Header ip(eth.payload());
  EXPECT_EQ(p_->data()[kEthHeaderBytes], 0x45);  // version 4, IHL 5
  EXPECT_TRUE(ip.checksum_ok());
  EXPECT_EQ(ip.protocol(), kIpProtoUdp);
  EXPECT_EQ(be16(*p_, kEthHeaderBytes + 2), GetParam() - kEthHeaderBytes);
}

TEST_P(CraftedFrame, FiveTupleParsesBack) {
  const auto t = parse_five_tuple(p_->bytes());
  ASSERT_TRUE(t);
  EXPECT_EQ(t->src_ip, spec_.src_ip);
  EXPECT_EQ(t->dst_ip, spec_.dst_ip);
  EXPECT_EQ(t->src_port, spec_.src_port);
  EXPECT_EQ(t->dst_port, spec_.dst_port);
  EXPECT_EQ(t->protocol, kIpProtoUdp);
}

TEST_P(CraftedFrame, PayloadSeqIsBigEndianAtPayloadStart) {
  const std::vector<std::uint8_t> before(p_->data(), p_->data() + p_->size());
  write_payload_seq(*p_, 0x0102030405060708ULL);
  ASSERT_EQ(p_->size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    const bool in_tag = i >= kUdpPayloadOffset && i < kUdpPayloadOffset + 8;
    const std::uint8_t want =
        in_tag ? static_cast<std::uint8_t>(i - kUdpPayloadOffset + 1)
               : before[i];
    EXPECT_EQ(p_->data()[i], want) << "byte " << i;
  }
  // The tag sits past the IPv4 header, so its checksum still holds.
  EthHeader eth(p_->bytes());
  EXPECT_TRUE(Ipv4Header(eth.payload()).checksum_ok());
}

TEST_P(CraftedFrame, ChecksumCatchesAHeaderChange) {
  EthHeader eth(p_->bytes());
  Ipv4Header ip(eth.payload());
  ip.set_src(Ipv4Address::parse("192.168.7.9").value());
  EXPECT_FALSE(ip.checksum_ok());
  ip.update_checksum();
  EXPECT_TRUE(ip.checksum_ok());
  EXPECT_EQ(parse_five_tuple(p_->bytes())->src_ip,
            Ipv4Address::parse("192.168.7.9").value());
}

INSTANTIATE_TEST_SUITE_P(Sizes, CraftedFrame,
                         ::testing::Values(64u, 128u, 256u, 512u, 1024u,
                                           1518u));

TEST(FiveTuple, RejectsNonIpv4) {
  PacketPool pool(1);
  auto p = pool.allocate();
  craft_udp_frame(*p, FrameSpec{});
  EthHeader eth(p->bytes());
  eth.set_ether_type(kEtherTypeArp);
  EXPECT_FALSE(parse_five_tuple(p->bytes()));
}

TEST(FiveTuple, RejectsTruncatedFrame) {
  const std::array<std::uint8_t, 20> tiny{};
  EXPECT_FALSE(parse_five_tuple(std::span<const std::uint8_t>(tiny)));
}

TEST(FiveTuple, HashDiffersAcrossFlows) {
  FiveTuple a{Ipv4Address{1}, Ipv4Address{2}, 10, 20, 17};
  FiveTuple b = a;
  b.src_port = 11;
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_EQ(a.hash(), a.hash());
}

TEST(Checksum, KnownVector) {
  // RFC 1071 example-style check: verify(sum || data) == true.
  std::vector<std::uint8_t> data{0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46,
                                 0x40, 0x00, 0x40, 0x06, 0x00, 0x00,
                                 0xac, 0x10, 0x0a, 0x63, 0xac, 0x10,
                                 0x0a, 0x0c};
  const std::uint16_t sum = internet_checksum(data);
  data[10] = static_cast<std::uint8_t>(sum >> 8);
  data[11] = static_cast<std::uint8_t>(sum & 0xff);
  EXPECT_TRUE(verify_internet_checksum(data));
}

TEST(Checksum, OddLengthHandled) {
  std::vector<std::uint8_t> data{0x01, 0x02, 0x03};
  const std::uint16_t sum = internet_checksum(data);
  EXPECT_NE(sum, 0);
}

TEST(EthHeader, MutationsStick) {
  PacketPool pool(1);
  auto p = pool.allocate();
  craft_udp_frame(*p, FrameSpec{});
  EthHeader eth(p->bytes());
  const auto m = MacAddress::from_u64(0x112233445566ULL);
  eth.set_dst(m);
  EXPECT_EQ(eth.dst(), m);
}

TEST(UdpHeader, FieldAccess) {
  PacketPool pool(1);
  auto p = pool.allocate();
  FrameSpec spec;
  spec.src_port = 1111;
  spec.dst_port = 2222;
  craft_udp_frame(*p, spec);
  constexpr std::size_t kUdp = kEthHeaderBytes + kIpv4HeaderBytes;
  EXPECT_EQ(be16(*p, kUdp), 1111);
  EXPECT_EQ(be16(*p, kUdp + 2), 2222);
  EXPECT_EQ(be16(*p, kUdp + 4), spec.frame_bytes - kUdp);
}

}  // namespace
}  // namespace nfvsb::pkt
