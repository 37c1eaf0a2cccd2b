#include "energy/radio_model.hpp"

#include <cmath>
#include <stdexcept>

#include "util/check.hpp"

namespace imobif::energy {

using util::Bits;
using util::Joules;
using util::JoulesPerBit;
using util::Meters;

void RadioParams::validate() const {
  if (a < 0.0) throw std::invalid_argument("RadioParams: a must be >= 0");
  if (b <= 0.0) throw std::invalid_argument("RadioParams: b must be > 0");
  if (alpha < 1.0) {
    throw std::invalid_argument("RadioParams: alpha must be >= 1");
  }
  if (rx_per_bit < 0.0) {
    throw std::invalid_argument("RadioParams: rx_per_bit must be >= 0");
  }
}

RadioEnergyModel::RadioEnergyModel(RadioParams params) : params_(params) {
  params_.validate();
}

JoulesPerBit RadioEnergyModel::power_per_bit(Meters distance) const {
  IMOBIF_ENSURE(util::isfinite(distance), "radio distance must be finite");
  if (distance < Meters{0.0}) {
    throw std::invalid_argument("power_per_bit: negative distance");
  }
  // Raw-double interior: b's unit depends on the runtime alpha (see header).
  const JoulesPerBit cost{params_.a +
                          params_.b * std::pow(distance.value(), params_.alpha)};
  IMOBIF_ASSERT(util::isfinite(cost),
                "per-bit transmission cost overflowed to non-finite");
  return cost;
}

Joules RadioEnergyModel::transmit_energy(Meters distance, Bits bits) const {
  if (bits < Bits{0.0}) {
    throw std::invalid_argument("transmit_energy: negative bits");
  }
  const Joules energy = bits * power_per_bit(distance);
  IMOBIF_ASSERT(util::isfinite(energy),
                "transmit energy overflowed to non-finite");
  return energy;
}

Bits RadioEnergyModel::sustainable_bits(Meters distance, Joules energy) const {
  if (energy <= Joules{0.0}) return Bits{0.0};
  return energy / power_per_bit(distance);
}

Joules RadioEnergyModel::receive_energy(Bits bits) const {
  if (bits < Bits{0.0}) {
    throw std::invalid_argument("receive_energy: negative bits");
  }
  const Joules energy = bits * JoulesPerBit{params_.rx_per_bit};
  IMOBIF_ASSERT(util::isfinite(energy),
                "receive energy overflowed to non-finite");
  return energy;
}

}  // namespace imobif::energy
