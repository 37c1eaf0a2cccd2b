#include "exp/scenario.hpp"

#include <cmath>
#include <stdexcept>

namespace imobif::exp {

void ScenarioParams::validate() const {
  // Values arrive from config text and snapshots: every check is written
  // so that NaN and infinity fail it too.
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  const auto non_negative = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  // Durations convert to simulator ticks; 1e12 s (~31,700 years) keeps
  // every product with them representable.
  const auto duration = [](double s, bool zero_ok) {
    return (zero_ok ? s >= 0.0 : s > 0.0) && s <= 1e12;
  };
  if (!positive(area_m.value())) {
    throw std::invalid_argument("Scenario: area <= 0");
  }
  if (node_count < 2) throw std::invalid_argument("Scenario: < 2 nodes");
  if (!positive(comm_range_m.value())) {
    throw std::invalid_argument("Scenario: comm_range <= 0");
  }
  radio.validate();
  mobility.validate();
  mob.validate();
  traffic.validate();
  if (!positive(initial_energy_j.value())) {
    throw std::invalid_argument("Scenario: initial energy <= 0");
  }
  if (random_energy && !(positive(energy_lo_j.value()) &&
                         positive(energy_hi_j.value()) &&
                         energy_hi_j >= energy_lo_j)) {
    throw std::invalid_argument("Scenario: bad random energy range");
  }
  if (!positive(mean_flow_bits.value()) || !positive(packet_bits.value()) ||
      !positive(rate_bps.value())) {
    throw std::invalid_argument("Scenario: bad flow parameters");
  }
  if (!duration(hello_interval_s.value(), false) ||
      !duration(warmup_s.value(), true)) {
    throw std::invalid_argument("Scenario: bad control-plane timing");
  }
  if (!non_negative(length_estimate_factor)) {
    throw std::invalid_argument("Scenario: negative estimate factor");
  }
  fault.validate();
  if (!duration(notify_retry_timeout_s.value(), false)) {
    throw std::invalid_argument("Scenario: notify retry timeout <= 0");
  }
}

}  // namespace imobif::exp
