#include "switches/fastclick/elements.h"

#include <cctype>
#include <stdexcept>

#include "pkt/headers.h"

namespace nfvsb::switches::fastclick {
namespace {

std::string trim_ws(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

Classifier::Classifier(std::string name, const std::string& args)
    : Element(std::move(name), 14, 5.0) {
  std::string cur;
  std::vector<std::string> items;
  for (char ch : args) {
    if (ch == ',') {
      items.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  items.push_back(cur);
  for (auto& raw : items) {
    const std::string item = trim_ws(raw);
    if (item.empty()) {
      throw std::invalid_argument("Classifier: empty pattern");
    }
    Pattern p;
    if (item == "-") {
      p.match_all = true;
      patterns_.push_back(std::move(p));
      continue;
    }
    const auto slash = item.find('/');
    if (slash == std::string::npos) {
      throw std::invalid_argument("Classifier: expected OFFSET/HEX: " + item);
    }
    p.offset = std::stoul(item.substr(0, slash));
    const std::string hex = item.substr(slash + 1);
    if (hex.empty() || hex.size() % 2 != 0) {
      throw std::invalid_argument("Classifier: odd hex length: " + item);
    }
    for (char c : hex) {
      if (c == '?') {
        p.value.push_back(0);
        p.mask.push_back(0x0);
      } else {
        const int v = hex_nibble(c);
        if (v < 0) {
          throw std::invalid_argument("Classifier: bad hex digit: " + item);
        }
        p.value.push_back(static_cast<std::uint8_t>(v));
        p.mask.push_back(0xf);
      }
    }
    patterns_.push_back(std::move(p));
  }
}

bool Classifier::matches(const Pattern& p, const pkt::Packet& pk) const {
  if (p.match_all) return true;
  const auto bytes = pk.bytes();
  const std::size_t nibbles = p.value.size();
  if (p.offset + nibbles / 2 > bytes.size()) return false;
  for (std::size_t i = 0; i < nibbles; ++i) {
    const std::uint8_t byte = bytes[p.offset + i / 2];
    const std::uint8_t nib = (i % 2 == 0) ? (byte >> 4) : (byte & 0xf);
    if ((nib & p.mask[i]) != (p.value[i] & p.mask[i])) return false;
  }
  return true;
}

void Classifier::push(PushContext& ctx, Batch& batch) {
  charge(ctx, batch.size());
  // Split the batch per output port, preserving order within each.
  std::vector<Batch> buckets(patterns_.size());
  for (auto& p : batch) {
    bool dispatched = false;
    for (std::size_t i = 0; i < patterns_.size(); ++i) {
      if (matches(patterns_[i], *p)) {
        buckets[i].push_back(std::move(p));
        dispatched = true;
        break;
      }
    }
    if (!dispatched) ++ctx.discarded;  // no pattern matched: Click drops
  }
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (!buckets[i].empty()) push_next(ctx, buckets[i], i);
  }
}

void EtherMirror::push(PushContext& ctx, Batch& batch) {
  charge(ctx, batch.size());
  for (auto& p : batch) {
    pkt::EthHeader eth(p->bytes());
    if (!eth.valid()) continue;
    const auto src = eth.src();
    const auto dst = eth.dst();
    eth.set_src(dst);
    eth.set_dst(src);
  }
  push_next(ctx, batch);
}

void DecIPTTL::push(PushContext& ctx, Batch& batch) {
  charge(ctx, batch.size());
  // Compact the survivors to the front, in order; expired packets are
  // freed on the spot.
  std::size_t alive = 0;
  for (auto& p : batch) {
    pkt::EthHeader eth(p->bytes());
    if (eth.valid() && eth.ether_type() == pkt::kEtherTypeIpv4) {
      pkt::Ipv4Header ip(eth.payload());
      if (!ip.valid() || !ip.decrement_ttl()) {
        ++ctx.discarded;
        p.reset();
        continue;
      }
    }
    batch[alive++] = std::move(p);
  }
  batch.resize(alive);
  push_next(ctx, batch);
}

}  // namespace nfvsb::switches::fastclick
