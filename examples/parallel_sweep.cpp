// Minimal tour of the parallel experiment runtime: fan a Monte Carlo
// sweep across worker threads with the SweepEngine, aggregate the result
// series with a SweepReport, and export a JSON artifact.
//
//   parallel_sweep [--instances N] [--jobs N] [--seed S] [--json PATH]
//
// Results are bit-identical for any --jobs value: each job's instance is
// sampled from a seed derived statelessly from (base seed, job index).
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
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 7));

  exp::ScenarioParams params;
  params.node_count = 60;
  params.area_m = util::Meters{800.0};
  params.mean_flow_bits = util::Bits{100.0 * 1024.0 * 8.0};

  // One job per instance, every job replayed under iMobif.
  std::vector<runtime::SweepJob> sweep(static_cast<std::size_t>(instances));
  for (auto& job : sweep) {
    job.params = params;
    job.mode = core::MobilityMode::kInformed;
  }

  const runtime::SweepEngine engine(
      jobs < 1 ? 1 : static_cast<std::size_t>(jobs));
  const auto outcomes = engine.run(sweep, seed);

  std::vector<double> total_energy, moved_m;
  for (const auto& outcome : outcomes) {
    total_energy.push_back(outcome.result.total_energy_j.value());
    moved_m.push_back(outcome.result.moved_distance_m.value());
    std::cout << "seed " << outcome.seed << "  hops " << outcome.hops
              << "  energy " << outcome.result.total_energy_j.value()
              << " J  moved " << outcome.result.moved_distance_m.value()
              << " m\n";
  }

  runtime::SweepReport report("parallel_sweep_example");
  report.set_meta("base_seed", seed);
  report.add_series("total_energy_j", total_energy);
  report.add_series("moved_distance_m", moved_m);

  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    report.write_file(json_path);
    std::cout << "wrote " << json_path << "\n";
  } else {
    std::cout << report.to_string();
  }
  return 0;
}
