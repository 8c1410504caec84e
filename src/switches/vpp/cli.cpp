#include "switches/vpp/cli.h"

#include <sstream>
#include <stdexcept>
#include <vector>

namespace nfvsb::switches::vpp {

void VppCli::run(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> toks;
  std::string t;
  while (in >> t) toks.push_back(t);

  // test l2patch rx <port> tx <port>
  if (toks.size() == 6 && toks[0] == "test" && toks[1] == "l2patch" &&
      toks[2] == "rx" && toks[4] == "tx") {
    const auto rx = port_names_.find(toks[3]);
    const auto tx = port_names_.find(toks[5]);
    if (rx == port_names_.end()) {
      throw std::invalid_argument("vpp cli: unknown port: " + toks[3]);
    }
    if (tx == port_names_.end()) {
      throw std::invalid_argument("vpp cli: unknown port: " + toks[5]);
    }
    sw_.l2patch(rx->second, tx->second);
    return;
  }
  throw std::invalid_argument("vpp cli: unrecognized command: " + line);
}

std::string VppCli::show_runtime() const {
  std::ostringstream out;
  out << "Name                 Calls       Vectors     Vectors/Call\n";
  auto& g = sw_.graph();
  for (std::size_t i = 0; i < g.size(); ++i) {
    auto& n = g.node(i);
    out << n.name();
    for (std::size_t pad = n.name().size(); pad < 21; ++pad) out << ' ';
    out << n.calls() << "       " << n.vectors() << "       "
        << n.avg_vector_size() << "\n";
  }
  return out.str();
}

}  // namespace nfvsb::switches::vpp
