#include "nfvsb-lint/sarif.h"

#include <algorithm>
#include <array>
#include <map>

namespace nfvsb::lint {
namespace {

struct RuleMeta {
  const char* id;
  const char* short_desc;
};

// The full catalogue: pass-1 determinism rules + pass-2 architecture rules.
// Order is the tool.driver.rules order; results reference rules by index.
constexpr std::array<RuleMeta, 11> kRules = {{
    {"wall-clock",
     "Wall-clock reads break seed-pure results; use core::SimTime."},
    {"entropy",
     "Ambient entropy breaks seed-pure results; use core::Rng."},
    {"unordered-iter",
     "Iteration over unordered containers is hash-order dependent."},
    {"std-function",
     "std::function heap-allocates on the event hot path; use "
     "core::EventFn / core::SmallFn."},
    {"naked-new",
     "Naked new/malloc in the data plane; use PacketPool or container "
     "storage."},
    {"ordered-sum",
     "Unordered floating-point accumulation changes result bits."},
    {"nodiscard",
     "EventId/bool/count returns need [[nodiscard]]."},
    {"arch-layer",
     "Include climbs the layer order declared in layers.def."},
    {"arch-cycle",
     "Strongly connected component in the include graph."},
    {"arch-banned-header",
     "Header banned for this data-path layer by layers.def."},
    {"arch-transitive-include",
     "Symbol used without directly including its defining header."},
}};

int rule_index(const std::string& id) {
  for (std::size_t i = 0; i < kRules.size(); ++i) {
    if (id == kRules[i].id) return static_cast<int>(i);
  }
  return -1;
}

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
}

std::string relative_uri(const std::string& file, const std::string& root) {
  std::string uri = file;
  if (!root.empty()) {
    std::string prefix = root;
    if (prefix.back() != '/') prefix += '/';
    if (uri.rfind(prefix, 0) == 0) uri = uri.substr(prefix.size());
  }
  std::replace(uri.begin(), uri.end(), '\\', '/');
  // SARIF artifactLocation URIs must be relative references, not "./x".
  while (uri.rfind("./", 0) == 0) uri = uri.substr(2);
  return uri;
}

}  // namespace

std::string to_sarif(const std::vector<Diagnostic>& diags,
                     const std::string& root) {
  std::string out;
  out +=
      "{\n"
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"nfvsb-lint\",\n"
      "          \"informationUri\": "
      "\"https://example.invalid/nfvsb/tools/nfvsb-lint\",\n"
      "          \"version\": \"2.0.0\",\n"
      "          \"rules\": [\n";
  for (std::size_t i = 0; i < kRules.size(); ++i) {
    out += "            {\"id\": \"";
    out += kRules[i].id;
    out += "\", \"shortDescription\": {\"text\": \"";
    append_escaped(out, kRules[i].short_desc);
    out += "\"}, \"defaultConfiguration\": {\"level\": \"error\"}}";
    out += i + 1 < kRules.size() ? ",\n" : "\n";
  }
  out +=
      "          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [\n";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    const int ri = rule_index(d.rule);
    out += "        {\"ruleId\": \"";
    append_escaped(out, d.rule);
    out += "\"";
    if (ri >= 0) {
      out += ", \"ruleIndex\": " + std::to_string(ri);
    }
    out += ", \"level\": \"error\", \"message\": {\"text\": \"";
    append_escaped(out, d.message);
    out += "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"";
    append_escaped(out, relative_uri(d.file, root));
    out += "\"}, \"region\": {\"startLine\": ";
    out += std::to_string(d.line > 0 ? d.line : 1);
    out += "}}}]}";
    out += i + 1 < diags.size() ? ",\n" : "\n";
  }
  out +=
      "      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace nfvsb::lint
