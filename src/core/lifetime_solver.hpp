// Exact solver for the Theorem-1 hop split.
//
// Theorem 1 requires P(d_prev)/P(d_self) = e_prev/e_self with
// d_prev + d_self = D and P(d) = a + b d^alpha. The paper notes that
// "the closed-form solutions ... are very complicated or even unavailable
// for alpha > 2" and falls back to the power-law approximation
// (d_prev/d_self)^alpha' = e_prev/e_self. Numerically, however, the exact
// condition is a strictly monotone one-dimensional root-finding problem,
// solved here by bisection to machine-level tolerance. The ablation
// examples/scenarios/ablation_exact_split.conf uses this to quantify how
// much the paper's approximation gives up (their claim: it is "effective").
#pragma once

#include "energy/radio_model.hpp"
#include "util/units.hpp"

namespace imobif::core {

/// Returns d_prev in [0, D]: the upstream hop length satisfying
/// P(d_prev)/P(D - d_prev) = e_prev/e_self exactly (clamped to the
/// achievable ratio range when the energies are too lopsided for any
/// split to balance). Energies are clamped to a tiny positive floor.
/// `tolerance` bounds the bisection error.
util::Meters exact_lifetime_split(const energy::RadioParams& radio,
                                  util::Joules e_prev, util::Joules e_self,
                                  util::Meters total_distance,
                                  util::Meters tolerance = util::Meters{1e-6});

}  // namespace imobif::core
