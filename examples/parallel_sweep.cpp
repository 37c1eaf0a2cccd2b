// Minimal tour of the parallel experiment runtime: fan a Monte Carlo
// comparison across worker threads with run_comparison_parallel,
// aggregate the energy ratios with a SweepReport, and export a JSON
// artifact.
//
//   parallel_sweep [--instances N] [--jobs N] [--seed S] [--json PATH]
//
// Results are bit-identical for any --jobs value: instance i is sampled
// from the i-th fork() of Rng(seed), drawn in order before dispatch.
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/report.hpp"
#include "runtime/sweep.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace imobif;

  const util::Args args(argc, argv);
  // Same rules as the bench CLI: at least one instance, --jobs < 1 means 1.
  const std::int64_t instances = args.get_int("instances", 8);
  if (instances < 1) {
    throw std::invalid_argument(
        "Args: --instances expects a positive integer, got " +
        std::to_string(instances));
  }
  const std::int64_t jobs = args.get_int("jobs", 4);

  exp::ScenarioParams params;
  params.node_count = 60;
  params.area_m = util::Meters{800.0};
  params.mean_flow_bits = util::Bits{100.0 * 1024.0 * 8.0};
  params.seed = args.get_unsigned<std::uint64_t>("seed", 7);

  // Each instance is replayed under no mobility, cost-unaware mobility
  // and iMobif; the ratios compare total energy against no mobility. On
  // flows this short, moving rarely pays for itself: cost-unaware
  // mobility overspends, and iMobif mostly keeps mobility off (ratio 1).
  const auto points = runtime::run_comparison_parallel(
      params, static_cast<std::size_t>(instances), {},
      jobs < 1 ? 1 : static_cast<std::size_t>(jobs));

  std::vector<double> informed, cost_unaware;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const exp::ComparisonPoint& pt = points[i];
    informed.push_back(pt.energy_ratio_informed());
    cost_unaware.push_back(pt.energy_ratio_cost_unaware());
    std::cout << "instance " << i << "  hops " << pt.hops
              << "  imobif ratio " << informed.back()
              << "  cost-unaware ratio " << cost_unaware.back() << "\n";
  }

  runtime::SweepReport report("parallel_sweep_example");
  report.set_meta("seed", params.seed);
  report.add_series("energy_ratio_informed", informed);
  report.add_series("energy_ratio_cost_unaware", cost_unaware);

  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    report.write_file(json_path);
    std::cout << "wrote " << json_path << "\n";
  } else {
    std::cout << report.to_string();
  }
  return 0;
}
