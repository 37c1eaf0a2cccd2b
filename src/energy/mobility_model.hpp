// Mobility cost model of the paper (Section 4): E_M(d) = k * d.
//
// k [J/m] captures terrain and node mass; the evaluation sweeps
// k in {0.1, 0.5, 1.0}. The model also enforces the per-step distance cap
// ("the maximum distance traveled is set to ... in each step").
//
// MobilityParams stays raw double (it is filled by the config/scenario text
// parsers); the model's methods are the typed boundary.
#pragma once

#include "util/units.hpp"

namespace imobif::energy {

// snap:transient(config struct, persisted wholesale as scenario text in the meta section)
struct MobilityParams {
  double k = 0.5;          ///< J/m, movement cost per meter
  double max_step_m = 1.0; ///< maximum travel distance per mobility step

  void validate() const;
};

class MobilityEnergyModel {
 public:
  explicit MobilityEnergyModel(MobilityParams params);

  const MobilityParams& params() const { return params_; }

  /// E_M(d): energy to move `distance` meters.
  util::Joules move_energy(util::Meters distance) const;

  /// The per-meter movement cost k as a typed quantity.
  util::JoulesPerMeter cost_per_meter() const {
    return util::JoulesPerMeter{params_.k};
  }

  util::Meters max_step() const { return util::Meters{params_.max_step_m}; }

 private:
  MobilityParams params_;
};

}  // namespace imobif::energy
