#include "switches/vpp/graph.h"

namespace nfvsb::switches::vpp {

double Graph::run(Vector& frame) {
  double cost = 0.0;
  for (auto& node : nodes_) {
    if (frame.empty()) break;
    std::size_t live = 0;
    for (const auto& e : frame) {
      if (!e.drop) ++live;
    }
    if (live == 0) break;
    node->count(live);
    cost += node->charge_ns(live);
    cost += node->process(frame);
  }
  return cost;
}

}  // namespace nfvsb::switches::vpp
