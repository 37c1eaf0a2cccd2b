// Quickstart: run one flow instance under the three approaches the paper
// compares and print the headline numbers (total energy, notifications,
// relay displacement).
//
//   $ ./quickstart [seed]
#include <cstdlib>
#include <iostream>

#include "runtime/sweep.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace imobif;

  exp::ScenarioParams params;
  params.seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  params.mean_flow_bits = util::Bits{1024.0 * 1024.0 * 8.0};
  params.mobility.k = 0.5;
  params.radio.alpha = 2.0;
  params.strategy = net::StrategyId::kMinTotalEnergy;

  std::cout << "iMobif quickstart: one 1 MB-mean flow, k = 0.5 J/m, "
               "alpha = 2\n\n";

  const auto points =
      runtime::run_comparison_parallel(params, /*flow_count=*/1);
  const exp::ComparisonPoint& pt = points.front();

  std::cout << "flow length: " << pt.flow_bits.value() / 8192.0
            << " KB over "
            << pt.hops << " greedy hops\n\n";

  util::Table table({"approach", "total J", "tx J", "move J", "ratio",
                     "notifications", "moved m"});
  auto add = [&](const char* name, const exp::RunResult& run,
                 double ratio) {
    table.add_row({name, util::Table::num(run.total_energy_j.value()),
                   util::Table::num(run.transmit_energy_j.value()),
                   util::Table::num(run.movement_energy_j.value()),
                   util::Table::num(ratio),
                   std::to_string(run.notifications),
                   util::Table::num(run.moved_distance_m.value())});
  };
  add("no-mobility", pt.baseline, 1.0);
  add("cost-unaware", pt.cost_unaware, pt.energy_ratio_cost_unaware());
  add("imobif", pt.informed, pt.energy_ratio_informed());
  table.print(std::cout);

  std::cout << "\nA ratio < 1 means the approach beat the static network; "
               "iMobif additionally\nnever does worse than the baseline on "
               "short flows because it verifies the\nmobility benefit "
               "against the movement cost before enabling it.\n";
  return 0;
}
