// SDN example: drive OvS-DPDK with OpenFlow-style rules on the low-level
// API (no scenario builder) — build the testbed, program priorities and a
// drop rule via ovs-ofctl syntax, send multi-flow traffic, then read the
// monitor and the datapath cache statistics.
#include <cstdio>

#include "core/simulator.h"
#include "hw/numa.h"
#include "pkt/packet_pool.h"
#include "switches/ovs/ovs_ctl.h"
#include "switches/ovs/ovs_switch.h"
#include "traffic/moongen.h"

int main() {
  using namespace nfvsb;

  core::Simulator sim(1234);
  hw::Testbed bed(sim);
  pkt::PacketPool pool(1 << 14);

  // SUT: OvS-DPDK on one isolated NUMA-0 core, bridging the two local
  // NIC ports.
  switches::ovs::OvsSwitch ovs(sim, bed.take_core(0), "br0");
  ovs.attach_nic(bed.nic(0, 0));  // OpenFlow port 1
  ovs.attach_nic(bed.nic(0, 1));  // OpenFlow port 2

  // Control plane: forward UDP :2000, drop UDP :2001, default drop.
  switches::ovs::OvsOfctl ofctl(ovs);
  ofctl.run("ovs-ofctl add-flow br0 "
            "\"priority=200,tp_dst=2001,actions=drop\"");
  ofctl.run("ovs-ofctl add-flow br0 "
            "\"priority=100,in_port=1,actions=output:2\"");
  std::puts("Installed OpenFlow rules:");
  std::fputs(ofctl.dump_flows().c_str(), stdout);
  ovs.start();

  // 64 flows of UDP traffic into OpenFlow port 1, and as many toward the
  // dropped UDP port into port 2 (one MoonGen per NIC port, as in the
  // paper's testbed; the drop rule matches on any in_port).
  traffic::MoonGen::Config gen_cfg;
  gen_cfg.rate_pps = 2e6;
  gen_cfg.num_flows = 64;
  traffic::MoonGen gen(sim, pool, gen_cfg);
  gen.attach_tx_nic(bed.nic(1, 0));
  gen.start_tx(0, core::from_ms(10));

  traffic::MoonGen::Config drop_cfg = gen_cfg;
  drop_cfg.frame.dst_port = 2001;  // matches the drop rule
  drop_cfg.frame.src_ip = pkt::Ipv4Address::parse("10.7.0.1").value();
  drop_cfg.origin = 2;
  traffic::MoonGen dropped(sim, pool, drop_cfg);
  dropped.attach_tx_nic(bed.nic(1, 1));
  dropped.start_tx(0, core::from_ms(10));

  // Monitor behind port 2 (sharing the NIC port with the dropped flow's
  // generator), measuring from 1 ms on.
  traffic::MoonGen::Config mon_cfg;
  mon_cfg.meter_open_at = core::from_ms(1);
  traffic::MoonGen mon(sim, pool, mon_cfg);
  mon.attach_rx_nic(bed.nic(1, 1));

  sim.run();

  std::printf("\nforwarded: %.2f Gbps\n", mon.rx_meter().gbps());
  std::printf("datapath: %llu upcalls, EMC %llu hits / %llu misses, "
              "megaflow %zu subtables, %llu discards (drop rule)\n",
              static_cast<unsigned long long>(ovs.upcalls()),
              static_cast<unsigned long long>(ovs.emc().hits()),
              static_cast<unsigned long long>(ovs.emc().misses()),
              ovs.megaflow().subtables(),
              static_cast<unsigned long long>(ovs.stats().discards));
  std::puts("\nNote: two upcalls were enough for 128 microflows — one\n"
            "megaflow absorbs all 64 forwarded flows, one absorbs the\n"
            "dropped ones. The megaflow masks are unwildcarded with every\n"
            "field the classifier examined (here tp_dst + in_port), so the\n"
            "forwarding megaflow can never shadow the drop rule.");
  return 0;
}
