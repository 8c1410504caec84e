// Inspector: build the paper's p2p configuration on each switch through
// its NATIVE configuration surface and print it back with the switch's own
// introspection tool — the appendix-A experience, end to end.
#include <cstdio>

#include "core/simulator.h"
#include "hw/numa.h"
#include "switches/bess/bess_switch.h"
#include "switches/fastclick/fastclick_switch.h"
#include "switches/ovs/ovs_ctl.h"
#include "switches/snabb/snabb_switch.h"
#include "switches/t4p4s/t4p4s_switch.h"
#include "switches/vale/vale_switch.h"
#include "switches/vpp/cli.h"

int main() {
  using namespace nfvsb;
  core::Simulator sim;
  hw::Testbed bed(sim);

  std::puts("=== BESS (QueueInc -> QueueOut + show pipeline) ===");
  {
    switches::bess::BessSwitch sw(sim, bed.take_core(0), "bess");
    sw.attach_nic(bed.nic(0, 0));
    sw.attach_nic(bed.nic(0, 1));
    sw.wire(0, 1);
    std::fputs(sw.pipeline().show().c_str(), stdout);
  }

  std::puts("\n=== FastClick (Click config + unparse) ===");
  {
    switches::fastclick::FastClickSwitch sw(sim, bed.take_core(0), "fc");
    sw.attach_nic(bed.nic(1, 0));
    sw.attach_nic(bed.nic(1, 1));
    sw.configure("FromDPDKDevice(0) -> EtherMirror() -> ToDPDKDevice(1);");
    std::fputs(sw.router().unparse().c_str(), stdout);
  }

  std::puts("\n=== VPP (debug CLI + show runtime) ===");
  {
    switches::vpp::VppSwitch sw(sim, bed.take_core(0), "vpp");
    sw.add_port(std::make_unique<ring::Port>(
        "port0", ring::PortKind::kInternal, 64));
    sw.add_port(std::make_unique<ring::Port>(
        "port1", ring::PortKind::kInternal, 64));
    switches::vpp::VppCli cli(sw);
    cli.register_port("port0", 0);
    cli.register_port("port1", 1);
    cli.run("test l2patch rx port0 tx port1");
    cli.run("test l2patch rx port1 tx port0");
    std::fputs(cli.show_runtime().c_str(), stdout);
  }

  std::puts("\n=== OvS-DPDK (ovs-ofctl + dump-flows) ===");
  {
    switches::ovs::OvsSwitch sw(sim, bed.take_core(0), "br0");
    sw.attach_nic(bed.nic(0, 0));      // OpenFlow port 1
    sw.add_vhost_user_port("vhost0");  // OpenFlow port 2
    switches::ovs::OvsOfctl ofctl(sw);
    ofctl.run("ovs-ofctl add-flow br0 priority=100,in_port=1,"
              "actions=output:2");
    std::fputs(ofctl.dump_flows().c_str(), stdout);
  }

  std::puts("\n=== Snabb (config.app/config.link + report) ===");
  {
    switches::snabb::SnabbSwitch sw(sim, bed.take_core(1), "snabb");
    sw.add_port(std::make_unique<ring::Port>(
        "p0", ring::PortKind::kPhysical, 64));
    sw.add_port(std::make_unique<ring::Port>(
        "p1", ring::PortKind::kPhysical, 64));
    sw.engine().app(
        std::make_unique<switches::snabb::Intel82599App>("nic1", 0));
    sw.engine().app(
        std::make_unique<switches::snabb::Intel82599App>("nic2", 1));
    sw.engine().link("nic1.tx -> nic2.rx");
    sw.engine().link("nic2.tx -> nic1.rx");
    std::fputs(sw.engine().report().c_str(), stdout);
  }

  std::puts("\n=== VALE (ptnet port) + t4p4s (runtime controller) ===");
  {
    switches::vale::ValeSwitch sw(sim, bed.take_core(1), "vale0");
    sw.add_ptnet_port("v0");
    std::printf("vale0 has %zu port(s); v0 is a %s port\n", sw.num_ports(),
                ring::to_string(sw.port(0).kind()));

    switches::t4p4s::T4p4sSwitch t4(sim, bed.take_core(1), "t4p4s");
    t4.controller("table_add l2fwd forward 02:4d:4d:4d:4d:01 => 1");
    std::printf("t4p4s l2fwd table: %zu entr%s\n", t4.l2_table().size(),
                t4.l2_table().size() == 1 ? "y" : "ies");
  }
  return 0;
}
