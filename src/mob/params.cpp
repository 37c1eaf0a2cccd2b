#include "mob/params.hpp"

#include <stdexcept>

namespace imobif::mob {

const char* to_string(ModelId id) {
  switch (id) {
    case ModelId::kNone:
      return "none";
    case ModelId::kRandomWaypoint:
      return "random-waypoint";
    case ModelId::kGaussMarkov:
      return "gauss-markov";
    case ModelId::kGroup:
      return "group";
    case ModelId::kTrace:
      return "trace";
  }
  return "?";
}

ModelId model_from_string(const std::string& name) {
  if (name == "none") return ModelId::kNone;
  if (name == "random-waypoint" || name == "rwp") {
    return ModelId::kRandomWaypoint;
  }
  if (name == "gauss-markov") return ModelId::kGaussMarkov;
  if (name == "group" || name == "rpgm") return ModelId::kGroup;
  if (name == "trace") return ModelId::kTrace;
  throw std::invalid_argument("mob: unknown model '" + name + "'");
}

void ModelParams::validate() const {
  using util::MetersPerSecond;
  using util::Seconds;
  if (!enabled()) return;
  if (!(update_s > Seconds{0.0})) {
    throw std::invalid_argument("mob: update interval must be > 0");
  }
  if (!(speed_min >= MetersPerSecond{0.0} && speed_max >= speed_min)) {
    throw std::invalid_argument("mob: bad speed range");
  }
  if (pause_s < Seconds{0.0}) {
    throw std::invalid_argument("mob: negative pause");
  }
  if (model == ModelId::kGaussMarkov) {
    if (!(gm_alpha >= 0.0 && gm_alpha <= 1.0)) {
      throw std::invalid_argument("mob: gm_alpha outside [0, 1]");
    }
    if (gm_speed_sigma < MetersPerSecond{0.0} || gm_dir_sigma_rad < 0.0) {
      throw std::invalid_argument("mob: negative Gauss-Markov sigma");
    }
  }
  if (model == ModelId::kGroup) {
    if (group_count == 0) {
      throw std::invalid_argument("mob: group count must be >= 1");
    }
    if (!(group_radius_m > util::Meters{0.0})) {
      throw std::invalid_argument("mob: group radius must be > 0");
    }
  }
  if (model == ModelId::kTrace) {
    if (trace_file.empty()) {
      throw std::invalid_argument("mob: trace model needs a trace_file");
    }
    // The path round-trips through the config grammar (snapshot meta,
    // scenario .conf files), where '#' and ';' start comments and
    // surrounding whitespace is trimmed — reject paths the grammar cannot
    // carry.
    if (trace_file.find_first_of("#;\n\r") != std::string::npos ||
        trace_file.front() == ' ' || trace_file.back() == ' ') {
      throw std::invalid_argument(
          "mob: trace_file path must not contain '#', ';', newlines, or "
          "leading/trailing spaces (config-grammar round trip)");
    }
  }
}

}  // namespace imobif::mob
