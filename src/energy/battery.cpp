#include "energy/battery.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace imobif::energy {

using util::Joules;

Battery::Battery(Joules initial) : initial_(initial), residual_(initial) {
  IMOBIF_ENSURE(util::isfinite(initial), "battery charge must be finite");
  if (initial < Joules{0.0}) {
    throw std::invalid_argument("Battery: negative initial energy");
  }
}

Joules Battery::draw(Joules amount, DrawKind kind) {
  IMOBIF_ENSURE(util::isfinite(amount), "battery draw must be finite");
  if (amount < Joules{0.0}) {
    throw std::invalid_argument("Battery: negative draw");
  }
  Joules& residual = res();
  const bool was_alive = residual > Joules{0.0};
  const Joules drawn = util::min(amount, residual);
  residual -= drawn;
  IMOBIF_ASSERT(residual >= Joules{0.0},
                "battery residual can never go negative");
  switch (kind) {
    case DrawKind::kTransmit:
      consumed_transmit_ += drawn;
      break;
    case DrawKind::kMove:
      consumed_move_ += drawn;
      break;
    case DrawKind::kOther:
      consumed_other_ += drawn;
      break;
  }
  if (was_alive && residual <= Joules{0.0} && on_depleted_) on_depleted_();
  return drawn;
}

void Battery::restore(Joules initial, Joules residual, Joules consumed_tx,
                      Joules consumed_move, Joules consumed_other) {
  IMOBIF_ENSURE(util::isfinite(initial) && util::isfinite(residual),
                "battery restore values must be finite");
  if (initial < Joules{0.0} || residual < Joules{0.0} || residual > initial) {
    throw std::invalid_argument("Battery: inconsistent restore state");
  }
  initial_ = initial;
  res() = residual;
  consumed_transmit_ = consumed_tx;
  consumed_move_ = consumed_move;
  consumed_other_ = consumed_other;
}

}  // namespace imobif::energy
