// imobif_sim: the scenario-driven experiment CLI.
//
// Runs a scenario under all three approaches (no mobility, cost-unaware,
// iMobif) and prints one summary row per sweep variant. The scenario
// starts from the paper defaults with 1 MB mean flows, then takes
// `key = value` lines from --config FILE and any scenario key given as a
// flag (flags win). A relative mobility.trace_file in FILE names a path
// from FILE's directory. Two more keys come from that same merged config:
//
//   sweep = <key>=<v1>,<v2>,...   one N-instance sweep per value, in order
//   sweep = <label> [k=v ...] | <label> [k=v ...] | ...
//                                 one sweep per labelled variant, each
//                                 setting its keys over the scenario
//   lifetime = true               stop at the first death and report
//                                 lifetime ratios instead of energy ratios
//
// Figures 6-8, every one-axis ablation, the mobility x traffic grid and
// the lossy-channel sweep are committed confs under examples/scenarios/.
// Each variant reports its two ratios and, from the iMobif run, its
// notifications, retries, applied notifications and moved distance:
//
//   $ ./imobif_sim --config examples/scenarios/fig6_energy.conf --instances 40
//   $ ./imobif_sim --config fig8_lifetime.conf --jobs 4 --json out.json
//   $ ./imobif_sim --k 0.1 --sweep recruit_margin=0,1.5 --csv out.csv
//   $ ./imobif_sim --config fig8_lifetime.conf --print-config
#include <algorithm>
#include <charconv>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <string_view>

#include "bench_common.hpp"
#include "exp/scenario_io.hpp"
#include "util/ascii_plot.hpp"
#include "util/config.hpp"

namespace {

using namespace imobif;

constexpr const char* kUsage =
    "  --config FILE    scenario `key = value` file (see\n"
    "                   examples/scenarios/); any scenario key also works\n"
    "                   as a flag, e.g. --k 0.1 --strategy max-lifetime\n"
    "  --sweep K=V1,V2  run the scenario once per value of key K, or\n"
    "                   once per variant of 'LABEL K=V ... | LABEL ...'\n"
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
  std::string label;        // empty when there is no sweep
  util::Config overrides;   // scenario keys set over the base scenario
  exp::ScenarioParams params;
};

struct Sweep {
  std::string axis;  // summary table's first column header
  std::vector<Variant> variants;
};

// Splits `text` at `sep` into trimmed items; an empty item is an error.
std::vector<std::string> split_items(const std::string& text, char sep) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = std::min(text.find(sep, start), text.size());
    items.push_back(trim(text.substr(start, end - start)));
    start = end + 1;
    if (items.back().empty()) {
      throw std::invalid_argument("sweep: empty variant in " + text);
    }
  }
  return items;
}

// Parses `sweep = key=v1,v2,...` (one variant per value, labelled by it)
// or `sweep = <label> k=v ... | <label> k=v ...` into one variant list.
// No sweep is one unlabelled variant.
Sweep parse_sweep(const std::string& text) {
  if (text.empty()) return {"scenario", std::vector<Variant>(1)};
  Sweep sweep{"variant", {}};
  if (text.find('|') != std::string::npos) {
    for (const std::string& item : split_items(text, '|')) {
      std::istringstream words(item);
      Variant variant;
      words >> variant.label;
      if (variant.label.find('=') != std::string::npos) {
        throw std::invalid_argument("sweep: variant '" + item +
                                    "' does not start with a label");
      }
      for (std::string word; words >> word;) {
        const auto eq = word.find('=');
        if (eq == 0 || eq == std::string::npos || eq + 1 == word.size()) {
          throw std::invalid_argument("sweep: expected key=value in variant " +
                                      variant.label + ", got " + word);
        }
        variant.overrides.set(word.substr(0, eq), word.substr(eq + 1));
      }
      sweep.variants.push_back(std::move(variant));
    }
  } else {
    const auto eq = text.find('=');
    sweep.axis = trim(text.substr(0, std::min(eq, text.size())));
    if (eq == std::string::npos || sweep.axis.empty()) {
      throw std::invalid_argument(
          "sweep: expected <key>=<v1>,<v2>,... or <label> <key>=<v> ... | "
          "<label> ..., got " + text);
    }
    for (const std::string& value : split_items(text.substr(eq + 1), ',')) {
      Variant variant;
      variant.label = axis_label(value);
      variant.overrides.set(sweep.axis, value);
      sweep.variants.push_back(std::move(variant));
    }
  }
  std::set<std::string> labels;
  for (const Variant& variant : sweep.variants) {
    if (!labels.insert(variant.label).second) {
      throw std::invalid_argument("sweep: duplicate variant " + variant.label);
    }
  }
  return sweep;
}

// Draws one variant's per-instance ratios: against the instance index,
// with the ratio-1 line (Fig. 6), or as the two ratio CDFs (Fig. 8).
void print_ratio_plot(const std::vector<double>& cost_unaware,
                      const std::vector<double>& informed,
                      const std::string& title, bool lifetime) {
  util::Series cu{"cost-unaware", 'o', {}, cost_unaware};
  util::Series in{"imobif", '*', {}, informed};
  util::PlotOptions opts;
  opts.title = title;
  std::cout << '\n';
  if (lifetime) {
    opts.x_label = "system lifetime ratio";
    std::cout << util::render_cdf({cu, in}, opts);
    return;
  }
  for (std::size_t i = 0; i < cost_unaware.size(); ++i) {
    cu.xs.push_back(static_cast<double>(i));
    in.xs.push_back(static_cast<double>(i));
  }
  opts.x_label = "flow instance";
  opts.y_label = "ratio vs no-mobility";
  opts.h_line = 1.0;
  std::cout << util::render_scatter({cu, in}, opts);
}

int run(int argc, char** argv) {
  const bench::BenchConfig config =
      bench::parse_bench_args(argc, argv, 20, kUsage);
  const bench::Stopwatch stopwatch;
  const util::Args args(argc, argv);

  util::Config merged;
  const std::filesystem::path conf = args.get_string("config");
  if (args.has("config")) {
    merged = util::Config::from_file(conf.string());
    // A conf names its trace file relative to itself; a flag, to the cwd.
    const std::filesystem::path trace =
        merged.get_string("mobility.trace_file");
    if (!trace.empty() && trace.is_relative()) {
      merged.set("mobility.trace_file",
                 std::filesystem::absolute(conf.parent_path() / trace)
                     .lexically_normal()
                     .string());
    }
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
  Sweep sweep = parse_sweep(sweep_text);
  for (Variant& variant : sweep.variants) {
    variant.params = base;
    try {
      exp::apply_config(variant.overrides, variant.params);
    } catch (const std::invalid_argument& err) {
      throw std::invalid_argument("sweep: variant " + variant.label + ": " +
                                  err.what());
    }
    bench::apply_fault(variant.params, config);
    variant.params.validate();
  }

  if (args.get_bool("print-config")) {
    // The scenario as it runs: --loss and --fault-seed apply to every
    // variant, so show them applied.
    exp::ScenarioParams effective = base;
    bench::apply_fault(effective, config);
    std::cout << exp::to_config_string(effective);
    if (lifetime) std::cout << "lifetime = true\n";
    if (!sweep_text.empty()) std::cout << "sweep = " << sweep_text << "\n";
    return 0;
  }

  const std::string bench_name =
      args.has("config") ? conf.stem().string() : "imobif_sim";
  const std::string metric = lifetime ? "lifetime" : "energy";
  runtime::SweepReport report(bench_name);
  bench::print_header(bench_name + " - " + metric +
                      " ratio vs no-mobility, " +
                      std::to_string(config.instances) +
                      " instances per row");

  // The cost-unaware mobility and transmit energies are Fig. 6(b).
  util::Table table({sweep.axis, "cost-unaware avg", "imobif avg",
                     "imobif max", "improved", "enabled", "notif avg",
                     "notif max",
                     lifetime ? "baseline s avg" : "baseline J avg",
                     "cu mobility J avg", "cu transmit J avg", "moved m avg",
                     "recruits avg", "complete"});
  util::Table rows({sweep.axis, "flow", "length KB", "hops", "cost-unaware",
                    "imobif", "notifications"});
  exp::RunOptions options;
  options.stop_on_first_death = lifetime;
  bench::FaultCounters totals;
  for (const Variant& variant : sweep.variants) {
    const auto points = bench::run_comparison(variant.params, config, options);
    totals.add(points);
    const std::string label = variant.label.empty() ? "base" : variant.label;
    util::Summary cu, in, notif, baseline, mobility_j, transmit_j, moved,
        recruits;
    std::size_t improved = 0, enabled = 0;
    bool complete = true;
    std::vector<double> cu_ratios, in_ratios, notifications, retries, applied,
        moved_m;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& pt = points[i];
      const double rc = lifetime ? pt.lifetime_ratio_cost_unaware()
                                 : pt.energy_ratio_cost_unaware();
      const double ri = lifetime ? pt.lifetime_ratio_informed()
                                 : pt.energy_ratio_informed();
      cu_ratios.push_back(rc);
      in_ratios.push_back(ri);
      notifications.push_back(static_cast<double>(pt.informed.notifications));
      retries.push_back(static_cast<double>(pt.informed.notify_retries));
      applied.push_back(
          static_cast<double>(pt.informed.notifications_applied));
      moved_m.push_back(pt.informed.moved_distance_m.value());
      cu.add(rc);
      in.add(ri);
      notif.add(notifications.back());
      baseline.add(lifetime ? pt.baseline.lifetime_s.value()
                            : pt.baseline.total_energy_j.value());
      mobility_j.add(pt.cost_unaware.movement_energy_j.value());
      transmit_j.add(pt.cost_unaware.transmit_energy_j.value());
      moved.add(moved_m.back());
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
    const std::string name = variant.label.empty() ? "" : variant.label + " ";
    const std::string ratio = name + (lifetime ? "lifetime_" : "") + "ratio_";
    report.add_series(ratio + "cost_unaware", cu_ratios);
    report.add_series(ratio + "informed", in_ratios);
    report.add_series(name + "notifications", notifications);
    report.add_series(name + "notify_retries", retries);
    report.add_series(name + "notifications_applied", applied);
    report.add_series(name + "moved_distance_m", moved_m);
    print_ratio_plot(cu_ratios, in_ratios,
                     bench_name + " " + label + " - " + metric + " ratio",
                     lifetime);
    const std::string of_n = "/" + std::to_string(points.size());
    table.add_row({label, util::Table::num(cu.mean()),
                   util::Table::num(in.mean()), util::Table::num(in.max()),
                   std::to_string(improved) + of_n,
                   std::to_string(enabled) + of_n,
                   util::Table::num(notif.mean()),
                   util::Table::num(notif.max()),
                   util::Table::num(baseline.mean(), 5),
                   util::Table::num(mobility_j.mean()),
                   util::Table::num(transmit_j.mean()),
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
