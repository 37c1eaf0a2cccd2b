// Figure-level experiment results (paper Section 4). A ComparisonPoint is
// one sampled flow instance replayed under the three approaches the paper
// compares — no mobility (baseline), cost-unaware mobility, and iMobif;
// runtime::run_comparison_parallel produces them. run_placement is the
// Fig 5 driver.
#pragma once

#include <cstdint>
#include <vector>

#include "exp/runner.hpp"

namespace imobif::exp {

/// One flow instance's outcome under all three approaches.
// snap:transient(sweep output, rebuilt from .result files on resume)
struct ComparisonPoint {
  util::Bits flow_bits{0.0};
  std::size_t hops = 0;

  RunResult baseline;      // no mobility
  RunResult cost_unaware;  // strategy always on, no cost/benefit check
  RunResult informed;      // full iMobif

  /// Fig 6: total-energy ratio vs the no-mobility baseline.
  double energy_ratio_cost_unaware() const;
  double energy_ratio_informed() const;

  /// Fig 8: system-lifetime ratio vs the no-mobility baseline.
  double lifetime_ratio_cost_unaware() const;
  double lifetime_ratio_informed() const;
};

/// Fig 5: one instance run to steady state under a given mode+strategy;
/// exposes the flow path with initial/final positions and energies.
// snap:transient(experiment output value, not live run state)
struct PlacementSnapshot {
  std::vector<net::NodeId> path;
  std::vector<geom::Vec2> initial_positions;  ///< path nodes, in order
  std::vector<geom::Vec2> final_positions;    ///< path nodes, in order
  std::vector<util::Joules> initial_energies;
  std::vector<util::Joules> final_energies;
  RunResult run;
};

PlacementSnapshot run_placement(const ScenarioParams& params,
                                core::MobilityMode mode,
                                const RunOptions& options = {});

}  // namespace imobif::exp
