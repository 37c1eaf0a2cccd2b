#include "exp/experiments.hpp"

namespace imobif::exp {

namespace {
double safe_ratio(double numerator, double denominator) {
  if (denominator <= 0.0) return 0.0;
  return numerator / denominator;
}
}  // namespace

double ComparisonPoint::energy_ratio_cost_unaware() const {
  return safe_ratio(cost_unaware.total_energy_j.value(),
                    baseline.total_energy_j.value());
}

double ComparisonPoint::energy_ratio_informed() const {
  return safe_ratio(informed.total_energy_j.value(),
                    baseline.total_energy_j.value());
}

double ComparisonPoint::lifetime_ratio_cost_unaware() const {
  return safe_ratio(cost_unaware.lifetime_s.value(),
                    baseline.lifetime_s.value());
}

double ComparisonPoint::lifetime_ratio_informed() const {
  return safe_ratio(informed.lifetime_s.value(), baseline.lifetime_s.value());
}

PlacementSnapshot run_placement(const ScenarioParams& params,
                                core::MobilityMode mode,
                                const RunOptions& options) {
  params.validate();
  util::Rng rng(params.seed);
  const FlowInstance instance = sample_instance(params, rng);

  PlacementSnapshot snap;
  snap.run = run_instance(instance, params, mode, options);
  snap.path = snap.run.path.empty() ? instance.initial_path : snap.run.path;
  for (const net::NodeId id : snap.path) {
    snap.initial_positions.push_back(instance.positions[id]);
    snap.final_positions.push_back(snap.run.final_positions[id]);
    snap.initial_energies.push_back(instance.energies[id]);
    snap.final_energies.push_back(snap.run.final_energies[id]);
  }
  return snap;
}

}  // namespace imobif::exp
