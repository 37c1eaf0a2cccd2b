// Radio transmission power/energy model of the paper (Section 4):
//
//   P(d)      = a + b * d^alpha          [J/bit]
//   E_T(d, l) = l * (a + b * d^alpha)    [J]    (paper's E_T)
//
// `a` is the distance-independent electronics cost per bit, `b` the amplifier
// coefficient, and alpha the path-loss exponent (2 or 3 in the evaluation).
//
// RadioParams stays raw double on purpose: b's unit, J * m^-alpha / bit,
// depends on the *runtime* exponent alpha and therefore cannot be expressed
// as a static util::Quantity dimension. The model's methods are the typed
// boundary — they accept and return strong units and keep the alpha-dependent
// algebra internal.
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace imobif::energy {

// snap:transient(config struct, persisted wholesale as scenario text in the meta section)
struct RadioParams {
  double a = 1e-7;    ///< J/bit, electronics energy
  double b = 1e-10;   ///< J * m^-alpha / bit, amplifier energy
  double alpha = 2.0; ///< path-loss exponent
  /// J/bit charged at the *receiver* per received bit. The paper's model
  /// charges the sender only (rx = 0, the default); the full first-order
  /// radio model charges receive electronics too — bench ablation A8
  /// studies the impact on lifetime.
  double rx_per_bit = 0.0;

  /// Throws std::invalid_argument unless a >= 0, b > 0, alpha >= 1,
  /// rx_per_bit >= 0.
  void validate() const;
};

class RadioEnergyModel {
 public:
  explicit RadioEnergyModel(RadioParams params);

  const RadioParams& params() const { return params_; }

  /// Minimum per-bit transmission power to reach distance d: P(d) [J/bit].
  util::JoulesPerBit power_per_bit(util::Meters distance) const;

  /// Energy to transmit `bits` across `distance`: E_T(d, l) [J].
  util::Joules transmit_energy(util::Meters distance, util::Bits bits) const;

  /// Number of bits transmittable across `distance` with `energy` joules
  /// — the paper's "sustainable data bits" for a fixed next-hop distance.
  util::Bits sustainable_bits(util::Meters distance,
                              util::Joules energy) const;

  /// Energy drawn by a receiver for `bits` received bits (0 in the paper's
  /// sender-pays model).
  util::Joules receive_energy(util::Bits bits) const;

 private:
  RadioParams params_;
};

}  // namespace imobif::energy
