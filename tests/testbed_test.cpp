// Testbed topology and VM chain builder.
#include <gtest/gtest.h>

#include "drain.h"
#include "hw/numa.h"
#include "pkt/crafting.h"
#include "pkt/packet_pool.h"
#include "ring/netmap_port.h"
#include "ring/vhost_user_port.h"
#include "switches/vpp/vpp_switch.h"
#include "vnf/chain.h"
#include "vnf/vale_guest.h"
#include "vnf/vm.h"

namespace nfvsb {
namespace {

TEST(Testbed, TwoNodesTwoPortsEach) {
  core::Simulator sim;
  hw::Testbed bed(sim);
  EXPECT_EQ(bed.node(0).nic_ports.size(), 2u);
  EXPECT_EQ(bed.node(1).nic_ports.size(), 2u);
  EXPECT_EQ(bed.node(0).cores.size(), 12u);  // default
}

TEST(Testbed, CrossNodeCabling) {
  // Fig. 3: node 0 port p is wired to node 1 port p.
  core::Simulator sim;
  hw::Testbed bed(sim);
  pkt::PacketPool pool(8);
  for (int p = 0; p < 2; ++p) {
    auto pkt = pool.allocate();
    pkt::craft_udp_frame(*pkt, pkt::FrameSpec{});
    bed.nic(1, p).tx_ring().enqueue(std::move(pkt));
    sim.run();
    EXPECT_EQ(bed.nic(0, p).rx_ring().size(), 1u) << p;
    drain(bed.nic(0, p).rx_ring());
  }
}

TEST(Testbed, CoreAllocationIsExclusive) {
  core::Simulator sim;
  hw::Testbed::Config cfg;
  cfg.cores_per_node = 3;
  hw::Testbed bed(sim, cfg);
  auto& a = bed.take_core(0);
  auto& b = bed.take_core(0);
  auto& c = bed.take_core(1);
  EXPECT_NE(&a, &b);
  EXPECT_EQ(a.numa_node(), 0);
  EXPECT_EQ(c.numa_node(), 1);
}

TEST(VmChain, BuildsPortsVmsAndVnfs) {
  core::Simulator sim;
  hw::Testbed::Config cfg;
  cfg.cores_per_node = 24;
  hw::Testbed bed(sim, cfg);
  switches::vpp::VppSwitch sut(sim, bed.take_core(0), "sut");
  sut.attach_nic(bed.nic(0, 0));
  sut.attach_nic(bed.nic(0, 1));
  vnf::VmChain chain(sim, bed, sut, 3);
  EXPECT_EQ(chain.length(), 3);
  // 2 NICs + 2 vhost ports per VM.
  EXPECT_EQ(sut.num_ports(), 8u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(chain.hop(i).idx_a, 2u + 2u * static_cast<std::size_t>(i));
    EXPECT_EQ(chain.hop(i).idx_b, 3u + 2u * static_cast<std::size_t>(i));
    EXPECT_NE(chain.hop(i).port_a, nullptr);
    EXPECT_EQ(chain.vm(i).vcpu_count(), 4u);  // QEMU -smp 4
  }
}

TEST(VmChain, VnfsForwardAcrossTheirPorts) {
  core::Simulator sim;
  hw::Testbed::Config cfg;
  cfg.cores_per_node = 24;
  hw::Testbed bed(sim, cfg);
  pkt::PacketPool pool(64);
  switches::vpp::VppSwitch sut(sim, bed.take_core(0), "sut");
  sut.attach_nic(bed.nic(0, 0));
  sut.attach_nic(bed.nic(0, 1));
  vnf::VmChain chain(sim, bed, sut, 1);
  chain.start();
  // Host writes 32 packets toward the VM via port A; the l2fwd VNF must
  // move them to port B's guest->host direction.
  for (int i = 0; i < 32; ++i) {
    auto p = pool.allocate();
    pkt::craft_udp_frame(*p, pkt::FrameSpec{});
    chain.hop(0).port_a->out().enqueue(std::move(p));
  }
  sim.run();
  EXPECT_EQ(chain.hop(0).port_b->in().size(), 32u);
  drain(chain.hop(0).port_b->in());
}

TEST(VmChain, ContainersTakeOneCoreAndDiscountVhostFixedCost) {
  core::Simulator sim;
  hw::Testbed::Config cfg;
  cfg.cores_per_node = 24;
  hw::Testbed bed(sim, cfg);
  switches::vpp::VppSwitch sut(sim, bed.take_core(0), "sut");
  vnf::VmChain vms(sim, bed, sut, 1);
  vnf::VmChain ctrs(sim, bed, sut, 1, /*containers=*/true);
  EXPECT_FALSE(vms.containers());
  EXPECT_TRUE(ctrs.containers());
  EXPECT_EQ(vms.vm(0).vcpu_count(), 4u);
  EXPECT_EQ(ctrs.vm(0).vcpu_count(), 1u);
  EXPECT_EQ(ctrs.vm(0).name(), "ctr1");
  const auto& vm_cost = vms.vnf(0).cost_model().vhost;
  const auto& ctr_cost = ctrs.vnf(0).cost_model().vhost;
  EXPECT_DOUBLE_EQ(ctr_cost.rx_ns, vm_cost.rx_ns * vnf::kVhostFixedFactor);
  EXPECT_DOUBLE_EQ(ctr_cost.tx_ns, vm_cost.tx_ns * vnf::kVhostFixedFactor);
  // The copies themselves are not discounted.
  EXPECT_DOUBLE_EQ(ctr_cost.rx_byte_ns, vm_cost.rx_byte_ns);
}

TEST(Vm, AttachReturnsTheHostPortSeenFromTheGuest) {
  ring::VhostUserPort vhost("sut:vhost0");
  ring::PtnetPort ptnet("sut:v0");
  vnf::Vm vm("vm1", {});
  ring::Port& virtio = vm.attach(vhost);
  ring::Port& pt = vm.attach(ptnet);
  EXPECT_EQ(virtio.name(), "sut:vhost0.guest");
  EXPECT_EQ(virtio.kind(), ring::PortKind::kVhostUser);
  EXPECT_EQ(&virtio.in(), &vhost.out());
  EXPECT_EQ(&virtio.out(), &vhost.in());
  // An earlier view stays valid as devices are added.
  EXPECT_EQ(pt.kind(), ring::PortKind::kPtnet);
  EXPECT_EQ(&pt.in(), &ptnet.out());
  EXPECT_EQ(&virtio.out(), &vhost.in());
}

TEST(GuestVale, PortsAreGuestViewsOfThePtnetPair) {
  core::Simulator sim;
  hw::CpuCore vcpu(sim, "vcpu");
  ring::PtnetPort a("a"), b("b");
  vnf::GuestVale guest(sim, vcpu, "vm:vale", a, b);
  auto& vale = guest.vale();
  ASSERT_EQ(vale.num_ports(), 2u);
  EXPECT_EQ(&vale.port(0).in(), &a.out());
  EXPECT_EQ(&vale.port(0).out(), &a.in());
  EXPECT_EQ(&vale.port(1).in(), &b.out());
  EXPECT_EQ(vale.port(1).kind(), ring::PortKind::kPtnet);
}

TEST(GuestVale, CrossConnectsPtnetPair) {
  core::Simulator sim;
  hw::CpuCore vcpu(sim, "vcpu");
  pkt::PacketPool pool(16);
  ring::PtnetPort a("a"), b("b");
  vnf::GuestVale guest(sim, vcpu, "vm:vale", a, b);
  guest.start();
  auto p = pool.allocate();
  pkt::craft_udp_frame(*p, pkt::FrameSpec{});
  a.out().enqueue(std::move(p));  // host wrote toward the VM on a
  sim.run();
  // The guest VALE flooded it out the other ptnet device (b.in).
  EXPECT_EQ(b.in().size(), 1u);
  drain(b.in());
}

TEST(GuestVale, UsesOnlyVirtualWakeups) {
  core::Simulator sim;
  hw::CpuCore vcpu(sim, "vcpu");
  ring::PtnetPort a("a"), b("b");
  vnf::GuestVale guest(sim, vcpu, "vm:vale", a, b);
  EXPECT_EQ(guest.vale().cost_model().wakeup_latency,
            guest.vale().cost_model().wakeup_latency_virtual);
}

}  // namespace
}  // namespace nfvsb
