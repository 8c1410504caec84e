// JSON serialization for campaign points.
//
// Configs and results are written as flat JSON objects; doubles are
// printed with 17 significant digits ("%.17g"), so a value is never
// rounded on its way into a campaign file. The format is frozen: the
// committed goldens (goldens/*.json) are byte-compared against fresh
// runs, so any change here shows up as a golden diff.
#pragma once

#include <string>

#include "scenario/scenario.h"

namespace nfvsb::campaign {

/// JSON object describing `cfg` (for the machine-readable result sink).
std::string config_to_json(const scenario::ScenarioConfig& cfg);

/// Flat JSON object with every ScenarioResult field, exact-roundtrip
/// doubles ("%.17g").
std::string result_to_json(const scenario::ScenarioResult& r);

}  // namespace nfvsb::campaign
