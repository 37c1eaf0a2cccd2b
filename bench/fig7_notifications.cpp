// Figure 7: the number of notification packets per flow under iMobif.
//
// Paper claim: the cost/benefit comparison is consistent between
// successive packets, so only a handful of notifications are sent per
// flow (no oscillation).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace imobif;
  const bench::BenchConfig config = bench::parse_bench_args(argc, argv, 60);
  const bench::Stopwatch stopwatch;

  exp::ScenarioParams p = bench::paper_defaults();
  p.mean_flow_bits = util::Bits{1.0 * bench::kMB};
  bench::apply_seed(p, config);
  bench::apply_fault(p, config);

  const auto points = bench::run_comparison(p, config);

  bench::print_header("Figure 7 - notification packets per flow (iMobif)");
  util::Summary notif;
  util::Series series;
  series.name = "notifications";
  series.marker = '*';
  util::Table table({"flow", "length KB", "notifications", "status flips"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& run = points[i].informed;
    notif.add(static_cast<double>(run.notifications));
    series.xs.push_back(static_cast<double>(i));
    series.ys.push_back(static_cast<double>(run.notifications));
    table.add_row({std::to_string(i),
                   util::Table::num(points[i].flow_bits.value() / bench::kKB, 5),
                   std::to_string(run.notifications),
                   std::to_string(run.notifications)});
  }
  table.print(std::cout);
  std::cout << "\nNumber of Notifications: Average: "
            << util::Table::num(notif.mean()) << "   max: "
            << util::Table::num(notif.max()) << "\n";

  util::PlotOptions po;
  po.title = "Figure 7 - notification packets per flow instance";
  po.x_label = "flow instance";
  po.y_label = "packets";
  std::cout << util::render_scatter({series}, po);

  std::cout << "\nPaper check: averages in the low single digits and no "
               "flow with a large\nnotification count indicate the "
               "cost/benefit signal is stable packet-to-packet.\n";

  runtime::SweepReport report("fig7_notifications");
  report.add_series("notifications", series.ys);
  bench::export_fault_counters(report, points);
  bench::export_report(report, config, stopwatch);
  return 0;
}
