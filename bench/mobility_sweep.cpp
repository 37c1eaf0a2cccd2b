// Mobility x traffic grid: iMobif vs static relays under ambient motion
// (DESIGN.md §14).
//
// Sweeps the model zoo — {random-waypoint, gauss-markov, group} background
// motion crossed with {cbr, onoff, pareto} traffic shaping — plus one
// trace-replay cell, replaying the same paired flow instances per cell so
// cell-to-cell differences isolate the ambient models. Each cell runs the
// full three-mode comparison (baseline / cost-unaware / iMobif).
//
// Expected shape: iMobif's energy ratio stays at or below the cost-unaware
// ratio in every cell; ambient motion erodes both (relay positions decay
// between packets), bursty traffic erodes them further (longer idle gaps
// per delivered bit), and the informed policy degrades most gracefully.
//
// The trace cell reads --trace PATH when given; otherwise the committed
// demo schedule, bench/traces/demo.trace (its path is compiled in).
#include "bench_common.hpp"
#include "mob/params.hpp"
#include "traffic/params.hpp"

namespace {

using namespace imobif;

struct Cell {
  mob::ModelId mobility;
  traffic::ModelId traffic;
};

struct CellOutcome {
  Cell cell;
  std::size_t completed = 0;
  std::size_t instances = 0;
  util::Summary ratio_unaware;
  util::Summary ratio_informed;
  util::Summary moved_m_informed;
  util::Summary notifications;
};

exp::ScenarioParams cell_params(const bench::BenchConfig& config,
                                const Cell& cell,
                                const std::string& trace_path) {
  exp::ScenarioParams p = bench::paper_defaults();
  // Long flows (the paper's Fig-6 "long" point): short flows never clear
  // the relocation crossover, so the informed policy would sit idle in
  // every cell and the grid would only exercise the cost-unaware mode.
  p.mean_flow_bits = util::Bits{1.0 * bench::kMB};
  bench::apply_seed(p, config);
  bench::apply_fault(p, config);

  p.mob.model = cell.mobility;
  if (cell.mobility == mob::ModelId::kTrace) {
    p.mob.trace_file = trace_path;
  } else if (p.mob.enabled()) {
    p.mob.update_s = util::Seconds{1.0};
    p.mob.speed_min = util::MetersPerSecond{0.5};
    p.mob.speed_max = util::MetersPerSecond{2.0};
    p.mob.pause_s = util::Seconds{10.0};
  }
  p.traffic.model = cell.traffic;
  return p;
}

CellOutcome run_cell(const bench::BenchConfig& config, const Cell& cell,
                     const std::string& trace_path) {
  CellOutcome out;
  out.cell = cell;
  const auto points =
      bench::run_comparison(cell_params(config, cell, trace_path), config);
  out.instances = points.size();
  for (const auto& pt : points) {
    if (pt.informed.completed) ++out.completed;
    out.ratio_unaware.add(pt.energy_ratio_cost_unaware());
    out.ratio_informed.add(pt.energy_ratio_informed());
    out.moved_m_informed.add(pt.informed.moved_distance_m.value());
    out.notifications.add(static_cast<double>(pt.informed.notifications));
  }
  return out;
}

std::string cell_tag(const Cell& cell) {
  return std::string(mob::to_string(cell.mobility)) + "/" +
         traffic::to_string(cell.traffic);
}

}  // namespace

int main(int argc, char** argv) {
  // 10 cells x 3 modes each: keep the per-cell instance count small.
  const bench::BenchConfig config = bench::parse_bench_args(argc, argv, 4);
  const bench::Stopwatch stopwatch;
  runtime::SweepReport report("mobility_sweep");

  const std::string trace_path =
      util::Args(argc, argv).get_string("trace", IMOBIF_DEMO_TRACE);

  std::vector<Cell> cells;
  for (const mob::ModelId m :
       {mob::ModelId::kRandomWaypoint, mob::ModelId::kGaussMarkov,
        mob::ModelId::kGroup}) {
    for (const traffic::ModelId t :
         {traffic::ModelId::kCbr, traffic::ModelId::kOnOff,
          traffic::ModelId::kPareto}) {
      cells.push_back({m, t});
    }
  }
  cells.push_back({mob::ModelId::kTrace, traffic::ModelId::kCbr});

  std::vector<CellOutcome> outcomes;
  outcomes.reserve(cells.size());
  for (const Cell& cell : cells) {
    outcomes.push_back(run_cell(config, cell, trace_path));
  }

  bench::print_header("Mobility x traffic grid - iMobif vs static relays");
  util::Table table({"cell", "completed", "ratio unaware", "ratio imobif",
                     "moved m (imobif)", "notif/flow"});
  for (const auto& out : outcomes) {
    table.add_row({cell_tag(out.cell),
                   std::to_string(out.completed) + "/" +
                       std::to_string(out.instances),
                   util::Table::num(out.ratio_unaware.mean()),
                   util::Table::num(out.ratio_informed.mean()),
                   util::Table::num(out.moved_m_informed.mean()),
                   util::Table::num(out.notifications.mean())});
  }
  table.print(std::cout);

  std::cout
      << "\nPaper check: the informed ratio should stay at or below the\n"
         "cost-unaware ratio in every cell; ambient motion and bursty\n"
         "traffic erode both, the informed policy most gracefully.\n";

  for (const auto& out : outcomes) {
    const std::string tag = cell_tag(out.cell);
    report.add_series(tag + " ratio_unaware", {out.ratio_unaware.mean()},
                      false);
    report.add_series(tag + " ratio_informed", {out.ratio_informed.mean()},
                      false);
    report.add_series(tag + " moved_m_informed",
                      {out.moved_m_informed.mean()}, false);
    report.add_series(tag + " notifications", {out.notifications.mean()},
                      false);
  }
  bench::export_report(report, config, stopwatch);
  return 0;
}
