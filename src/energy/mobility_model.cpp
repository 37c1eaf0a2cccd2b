#include "energy/mobility_model.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace imobif::energy {

using util::Joules;
using util::Meters;

void MobilityParams::validate() const {
  if (k < 0.0) throw std::invalid_argument("MobilityParams: k must be >= 0");
  if (max_step_m <= 0.0) {
    throw std::invalid_argument("MobilityParams: max_step_m must be > 0");
  }
}

MobilityEnergyModel::MobilityEnergyModel(MobilityParams params)
    : params_(params) {
  params_.validate();
}

Joules MobilityEnergyModel::move_energy(Meters distance) const {
  IMOBIF_ENSURE(util::isfinite(distance), "move distance must be finite");
  if (distance < Meters{0.0}) {
    throw std::invalid_argument("move_energy: negative distance");
  }
  const Joules energy{params_.k * distance.value()};
  IMOBIF_ASSERT(util::isfinite(energy), "move energy overflowed to non-finite");
  return energy;
}

}  // namespace imobif::energy
