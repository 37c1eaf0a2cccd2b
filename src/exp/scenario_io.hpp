// Config-file / command-line binding for ScenarioParams, used by the
// imobif_sim experiment CLI and snapshot meta. Key names mirror the field
// names in scenario.hpp.
#pragma once

#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "util/config.hpp"

namespace imobif::exp {

/// Overrides fields of `params` from config keys (absent keys keep their
/// current value). Throws std::invalid_argument naming the first key that
/// is not a scenario key. The keys are one table, kKeys in scenario_io.cpp:
/// a row names a key, binds its field and says when it is written, so
/// adding a key is adding a row.
void apply_config(const util::Config& config, ScenarioParams& params);

/// Human-readable dump of every scenario field (one `key = value` line
/// each) — valid as a config file, closing the round trip.
std::string to_config_string(const ScenarioParams& params);

/// Crash-schedule encoding for the `crashes` config key: comma-separated
/// `node:at_s:duration_s` triples (duration < 0 = permanent), e.g.
/// "7:120:30,12:300:-1". Whitespace around separators is ignored. The
/// parser also accepts legacy ';' separators, but only outside config
/// files (';' starts a comment in the config grammar).
std::string format_crashes(
    const std::vector<net::FaultPlan::CrashEvent>& crashes);
std::vector<net::FaultPlan::CrashEvent> parse_crashes(
    const std::string& text);

}  // namespace imobif::exp
