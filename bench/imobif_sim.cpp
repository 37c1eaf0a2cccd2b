// imobif_sim: the scenario-driven experiment CLI.
//
// Runs a scenario under all three approaches (no mobility, cost-unaware,
// iMobif) and prints one summary row per value of an optional sweep axis.
// The scenario starts from the paper defaults with 1 MB mean flows, then
// takes `key = value` lines from --config FILE and any scenario key given
// as a flag (flags win). Two more keys come from that same merged config:
//
//   sweep = <key>=<v1>,<v2>,...   one N-instance sweep per value, in order
//   lifetime = true               stop at the first death and report
//                                 lifetime ratios instead of energy ratios
//
// Every one-axis ablation is a committed conf under examples/scenarios/:
//
//   $ ./imobif_sim --config examples/scenarios/ablation_damping.conf
//   $ ./imobif_sim --config fig8.conf --instances 100 --jobs 4 --json out.json
//   $ ./imobif_sim --k 0.1 --sweep recruit_margin=0,1.5 --csv out.csv
//   $ ./imobif_sim --config examples/scenarios/fig8.conf --print-config
#include <algorithm>
#include <charconv>
#include <filesystem>
#include <iostream>
#include <string_view>

#include "bench_common.hpp"
#include "exp/scenario_io.hpp"
#include "util/config.hpp"

namespace {

using namespace imobif;

constexpr const char* kUsage =
    "  --config FILE    scenario `key = value` file (see\n"
    "                   examples/scenarios/); any scenario key also works\n"
    "                   as a flag, e.g. --k 0.1 --strategy max-lifetime\n"
    "  --sweep K=V1,V2  run the scenario once per value of key K\n"
    "  --lifetime       lifetime experiment (stop at first death)\n"
    "  --csv FILE       also write per-instance rows as CSV\n"
    "  --print-config   dump the effective scenario and exit\n";

// Flags that configure the run rather than the scenario. `seed` is not
// one of them: it reaches the scenario as an ordinary scenario key.
constexpr std::string_view kRunFlags[] = {
    "config", "csv", "print-config", "help", "instances", "jobs", "json",
    "loss", "fault-seed", "checkpoint-dir", "resume", "checkpoint-every-s"};

bool is_run_flag(const std::string& key) {
  return std::find(std::begin(kRunFlags), std::end(kRunFlags), key) !=
         std::end(kRunFlags);
}

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t");
  if (first == std::string::npos) return "";
  return s.substr(first, s.find_last_not_of(" \t") - first + 1);
}

// Row/series label of an axis value: numbers as util::Table::num prints
// them, anything else (true, max-lifetime, ...) verbatim.
std::string axis_label(const std::string& value) {
  double v = 0.0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  return ec == std::errc{} && ptr == end ? util::Table::num(v) : value;
}

struct Variant {
  std::string label;  // empty when there is no sweep axis
  exp::ScenarioParams params;
};

struct Sweep {
  std::string key;  // empty when there is no sweep axis
  std::vector<Variant> variants;
};

// Expands `sweep = key=v1,v2,...` over `base`; no sweep is one variant.
Sweep expand_sweep(const std::string& text, const exp::ScenarioParams& base) {
  if (text.empty()) return {"", {{"", base}}};
  const auto eq = text.find('=');
  Sweep sweep{trim(text.substr(0, std::min(eq, text.size()))), {}};
  if (eq == std::string::npos || sweep.key.empty()) {
    throw std::invalid_argument("sweep: expected <key>=<v1>,<v2>,..., got " +
                                text);
  }
  std::size_t start = eq + 1;
  while (start <= text.size()) {
    const std::size_t comma = std::min(text.find(',', start), text.size());
    const std::string value = trim(text.substr(start, comma - start));
    start = comma + 1;
    if (value.empty()) {
      throw std::invalid_argument("sweep: empty value in " + text);
    }
    Variant variant{axis_label(value), base};
    for (const Variant& seen : sweep.variants) {
      if (seen.label == variant.label) {
        throw std::invalid_argument("sweep: duplicate value " + value);
      }
    }
    util::Config axis;
    axis.set(sweep.key, value);
    exp::apply_config(axis, variant.params);
    sweep.variants.push_back(std::move(variant));
  }
  return sweep;
}

int run(int argc, char** argv) {
  const bench::BenchConfig config =
      bench::parse_bench_args(argc, argv, 20, kUsage);
  const bench::Stopwatch stopwatch;
  const util::Args args(argc, argv);

  util::Config merged;
  if (args.has("config")) {
    merged = util::Config::from_file(args.get_string("config"));
  }
  for (const std::string& key : args.keys()) {
    if (!is_run_flag(key)) merged.set(key, args.get_string(key));
  }
  const std::string sweep_text = merged.get_string("sweep");
  const bool lifetime = merged.get_bool("lifetime", false);
  util::Config scenario;
  for (const std::string& key : merged.keys()) {
    if (key != "sweep" && key != "lifetime") {
      scenario.set(key, merged.get_string(key));
    }
  }

  exp::ScenarioParams base = bench::paper_defaults();
  base.mean_flow_bits = util::Bits{1.0 * bench::kMB};
  exp::apply_config(scenario, base);
  Sweep sweep = expand_sweep(sweep_text, base);
  for (Variant& variant : sweep.variants) {
    bench::apply_fault(variant.params, config);
    variant.params.validate();
  }

  if (args.get_bool("print-config")) {
    std::cout << exp::to_config_string(base);
    if (lifetime) std::cout << "lifetime = true\n";
    if (!sweep_text.empty()) std::cout << "sweep = " << sweep_text << "\n";
    return 0;
  }

  const std::string bench_name =
      args.has("config")
          ? std::filesystem::path(args.get_string("config")).stem().string()
          : "imobif_sim";
  const std::string metric = lifetime ? "lifetime" : "energy";
  runtime::SweepReport report(bench_name);
  bench::print_header(bench_name + " - " + metric +
                      " ratio vs no-mobility, " +
                      std::to_string(config.instances) +
                      " instances per row");

  const std::string axis_header = sweep.key.empty() ? "scenario" : sweep.key;
  util::Table table({axis_header, "cost-unaware avg", "imobif avg",
                     "imobif max", "improved", "enabled", "notif avg",
                     "notif max",
                     lifetime ? "baseline s avg" : "baseline J avg",
                     "moved m avg", "recruits avg", "complete"});
  util::Table rows({axis_header, "flow", "length KB", "hops", "cost-unaware",
                    "imobif", "notifications"});
  exp::RunOptions options;
  options.stop_on_first_death = lifetime;
  bench::FaultCounters totals;
  for (const Variant& variant : sweep.variants) {
    const auto points = bench::run_comparison(variant.params, config, options);
    totals.add(points);
    const std::string label = variant.label.empty() ? "base" : variant.label;
    util::Summary cu, in, notif, baseline, moved, recruits;
    std::size_t improved = 0, enabled = 0;
    bool complete = true;
    std::vector<double> series_values;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& pt = points[i];
      const double rc = lifetime ? pt.lifetime_ratio_cost_unaware()
                                 : pt.energy_ratio_cost_unaware();
      const double ri = lifetime ? pt.lifetime_ratio_informed()
                                 : pt.energy_ratio_informed();
      series_values.push_back(ri);
      cu.add(rc);
      in.add(ri);
      notif.add(static_cast<double>(pt.informed.notifications));
      baseline.add(lifetime ? pt.baseline.lifetime_s.value()
                            : pt.baseline.total_energy_j.value());
      moved.add(pt.informed.moved_distance_m.value());
      recruits.add(static_cast<double>(pt.informed.recruits));
      // Better than no mobility by more than 0.1%.
      if (lifetime ? ri > 1.001 : ri < 0.999) ++improved;
      if (pt.informed.moved_distance_m.value() > 0.0) ++enabled;
      complete = complete && pt.informed.completed;
      rows.add_row({label, std::to_string(i),
                    util::Table::num(pt.flow_bits.value() / bench::kKB, 5),
                    std::to_string(pt.hops), util::Table::num(rc),
                    util::Table::num(ri),
                    std::to_string(pt.informed.notifications)});
    }
    report.add_series(
        (variant.label.empty() ? "" : variant.label + " ") + metric +
            "_ratio_informed",
        series_values);
    const std::string of_n = "/" + std::to_string(points.size());
    table.add_row({label, util::Table::num(cu.mean()),
                   util::Table::num(in.mean()), util::Table::num(in.max()),
                   std::to_string(improved) + of_n,
                   std::to_string(enabled) + of_n,
                   util::Table::num(notif.mean()),
                   util::Table::num(notif.max()),
                   util::Table::num(baseline.mean(), 5),
                   util::Table::num(moved.mean()),
                   util::Table::num(recruits.mean()),
                   complete ? "yes" : "NO"});
  }
  table.print(std::cout);
  totals.export_to(report);
  bench::export_report(report, config, stopwatch);
  if (args.has("csv")) {
    util::write_csv(args.get_string("csv"), rows);
    std::cout << "\nwrote " << args.get_string("csv") << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << "\n";
    return 1;
  }
}
