// Figure 8: CDF of the system-lifetime ratio (vs the no-mobility
// baseline) for cost-unaware mobility and iMobif with the max-lifetime
// strategy.
//
// Setup per the paper: long flows (mean 1 MB), k = 0.5, alpha = 2, node
// residual energy drawn uniformly from a deliberately low range so nodes
// die mid-flow and lifetime differences are visible.
//
// Paper shape: cost-unaware lifetime is usually *shorter* than baseline
// (average ~0.55 - bottleneck nodes waste energy moving); iMobif is at or
// above baseline for most instances with improvements up to ~2-3x on some.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace imobif;
  const bench::BenchConfig config = bench::parse_bench_args(argc, argv, 60);
  const bench::Stopwatch stopwatch;

  exp::ScenarioParams p = bench::paper_defaults();
  p.strategy = net::StrategyId::kMaxLifetime;
  p.mean_flow_bits = util::Bits{1.0 * bench::kMB};
  p.mobility.k = 0.5;
  p.random_energy = true;  // "intentionally low residual energy"
  p.energy_lo_j = util::Joules{5.0};
  p.energy_hi_j = util::Joules{100.0};
  p.seed = 20050611;
  bench::apply_seed(p, config);
  bench::apply_fault(p, config);

  exp::RunOptions opts;
  opts.stop_on_first_death = true;

  const auto points = bench::run_comparison(p, config, opts);

  bench::print_header(
      "Figure 8 - system lifetime ratio CDF (max-lifetime strategy)");
  util::Summary cu, in;
  util::Series cu_s, in_s;
  cu_s.name = "cost-unaware";
  cu_s.marker = 'o';
  in_s.name = "informed (imobif)";
  in_s.marker = '*';
  util::Table table({"flow", "length KB", "baseline life s",
                     "ratio cost-unaware", "ratio imobif", "death?"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& pt = points[i];
    cu.add(pt.lifetime_ratio_cost_unaware());
    in.add(pt.lifetime_ratio_informed());
    cu_s.ys.push_back(pt.lifetime_ratio_cost_unaware());
    in_s.ys.push_back(pt.lifetime_ratio_informed());
    table.add_row({std::to_string(i),
                   util::Table::num(pt.flow_bits.value() / bench::kKB, 5),
                   util::Table::num(pt.baseline.lifetime_s.value(), 5),
                   util::Table::num(pt.lifetime_ratio_cost_unaware()),
                   util::Table::num(pt.lifetime_ratio_informed()),
                   pt.baseline.any_death ? "yes" : "censored"});
  }
  table.print(std::cout);

  std::cout << "\nCost-Unaware: Average " << util::Table::num(cu.mean())
            << "   Informed: Average " << util::Table::num(in.mean())
            << "   Informed max " << util::Table::num(in.max()) << "\n"
            << "KS distance between the two ratio distributions: "
            << util::Table::num(util::ks_statistic(cu_s.ys, in_s.ys))
            << "\n";

  util::PlotOptions po;
  po.title = "Figure 8 - CDF of system lifetime ratio";
  po.x_label = "system lifetime ratio";
  po.h_line = std::numeric_limits<double>::quiet_NaN();
  std::cout << util::render_cdf({cu_s, in_s}, po);

  std::cout << "\nPaper check: the cost-unaware CDF sits mostly left of "
               "ratio 1 (shorter\nlifetime than static), while the "
               "informed CDF hugs ratio 1 from above with a\ntail of "
               "instances improved by 1.5-3x.\n";

  runtime::SweepReport report("fig8_lifetime");
  report.add_series("lifetime_ratio_cost_unaware", cu_s.ys);
  report.add_series("lifetime_ratio_informed", in_s.ys);
  bench::export_fault_counters(report, points);
  bench::export_report(report, config, stopwatch);
  return 0;
}
