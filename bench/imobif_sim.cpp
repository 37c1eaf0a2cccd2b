// imobif_sim: the scenario-driven experiment CLI.
//
// Runs a scenario under all three approaches (no mobility, cost-unaware,
// iMobif) and prints one summary row per sweep variant, or prints one
// flow's placement per variant (report = placement). The scenario
// starts from the paper defaults with 1 MB mean flows, then takes
// `key = value` lines from --config FILE and any scenario key given as a
// flag (flags win). A relative mobility.trace_file in FILE names a path
// from FILE's directory. Two more keys come from that same merged config:
//
//   sweep = <key>=<v1>,<v2>,...   one N-instance sweep per value, in order
//   sweep = <label> [k=v ...] | <label> [k=v ...] | ...
//                                 one sweep per labelled variant, each
//                                 setting its keys over the scenario
//   report = energy | lifetime | placement
//                                 energy ratios (the default); lifetime
//                                 ratios, stopping at the first death; or
//                                 one flow's placement before and after
//                                 cost-unaware motion settles (Fig. 5)
//
// Figures 5-8, every one-axis ablation, the mobility x traffic grid and
// the lossy-channel sweep are committed confs under examples/scenarios/.
// Each compared variant reports its two ratios and, from the iMobif run,
// its notifications, retries, applied notifications and moved distance:
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
#include "geom/segment.hpp"
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
    "  --report R       energy (default), lifetime (stop at first death)\n"
    "                   or placement (Fig. 5: one flow, before and after)\n"
    "  --csv FILE       also write per-instance rows as CSV (energy and\n"
    "                   lifetime reports)\n"
    "  --print-config   dump the effective scenario and exit\n";

// Flags that configure the run rather than the scenario. Everything else,
// `seed` and the fault keys included, is a scenario key.
constexpr std::string_view kRunFlags[] = {
    "config", "csv", "print-config", "help", "instances", "jobs", "json",
    "checkpoint-dir", "resume", "checkpoint-every-s"};

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

// A variant's JSON series are named `<label> <series>`, or just
// `<series>` when there is no sweep.
std::string series_prefix(const Variant& variant) {
  return variant.label.empty() ? "" : variant.label + " ";
}

// Prints the flow's path nodes before or after the run, and how far its
// relays sit off the source-destination line.
void print_placement(const std::string& title,
                     const exp::PlacementSnapshot& snap,
                     bool final_positions) {
  util::Table table(
      {"node", "x (m)", "y (m)", "energy (J)", "hop to next (m)"});
  const auto& pos =
      final_positions ? snap.final_positions : snap.initial_positions;
  const auto& energy =
      final_positions ? snap.final_energies : snap.initial_energies;
  for (std::size_t i = 0; i < snap.path.size(); ++i) {
    const double hop =
        i + 1 < pos.size() ? geom::distance(pos[i], pos[i + 1]) : 0.0;
    table.add_row({std::to_string(snap.path[i]),
                   util::Table::num(pos[i].x, 5),
                   util::Table::num(pos[i].y, 5),
                   util::Table::num(energy[i].value(), 4),
                   i + 1 < pos.size() ? util::Table::num(hop, 4) : "-"});
  }
  std::cout << "\n--- " << title << " ---\n";
  table.print(std::cout);

  const geom::Segment line{pos.front(), pos.back()};
  double worst = 0.0;
  for (std::size_t i = 1; i + 1 < pos.size(); ++i) {
    worst = std::max(worst, line.distance_to(pos[i]));
  }
  std::cout << "max relay distance from source-dest line: "
            << util::Table::num(worst, 4) << " m   path tortuosity: "
            << util::Table::num(geom::tortuosity(pos.data(), pos.size()), 6)
            << "\n";
}

// Fig. 5: one flow per variant under cost-unaware motion, which moves
// unconditionally, run long enough to reach its steady state. Each
// variant prints both placements and reports the path's final energies.
void run_placements(const Sweep& sweep, runtime::SweepReport& report,
                    bench::FaultCounters& totals) {
  exp::RunOptions options;
  options.horizon_factor = 6.0;
  for (const Variant& variant : sweep.variants) {
    const exp::PlacementSnapshot snap = exp::run_placement(
        variant.params, core::MobilityMode::kCostUnaware, options);
    const std::string label = variant.label.empty() ? "base" : variant.label;
    print_placement(label + " original placement", snap, false);
    print_placement(label + " steady state", snap, true);
    std::vector<double> energies;
    for (const util::Joules e : snap.final_energies) {
      energies.push_back(e.value());
    }
    report.add_series(series_prefix(variant) + "final_energies", energies);
    totals.add(snap.run);
  }
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
  const std::string report_name = merged.get_string("report", "energy");
  if (report_name != "energy" && report_name != "lifetime" &&
      report_name != "placement") {
    throw std::invalid_argument(
        "report: expected energy, lifetime or placement, got " + report_name);
  }
  util::Config scenario;
  for (const std::string& key : merged.keys()) {
    if (key != "sweep" && key != "report") {
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
    variant.params.validate();
  }

  if (args.get_bool("print-config")) {
    const std::string text = exp::to_config_string(base);
    std::cout << text;
    // The base's text leaves out the keys of a model it keeps off, but a
    // sweep variant that turns the model on reads them.
    const util::Config printed = util::Config::from_string(text);
    for (const std::string& key : scenario.keys()) {
      if (!printed.has(key)) {
        std::cout << key << " = " << scenario.get_string(key) << "\n";
      }
    }
    std::cout << "report = " << report_name << "\n";
    if (!sweep_text.empty()) std::cout << "sweep = " << sweep_text << "\n";
    return 0;
  }

  const std::string bench_name =
      args.has("config") ? conf.stem().string() : "imobif_sim";
  runtime::SweepReport report(bench_name);
  bench::FaultCounters totals;
  if (report_name == "placement") {
    bench::print_header(bench_name +
                        " - flow placement before and after cost-unaware "
                        "motion settles");
    run_placements(sweep, report, totals);
    totals.export_to(report);
    bench::export_report(report, config, stopwatch);
    return 0;
  }
  const bool lifetime = report_name == "lifetime";
  bench::print_header(bench_name + " - " + report_name +
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
    const std::string name = series_prefix(variant);
    const std::string ratio = name + (lifetime ? "lifetime_" : "") + "ratio_";
    report.add_series(ratio + "cost_unaware", cu_ratios);
    report.add_series(ratio + "informed", in_ratios);
    report.add_series(name + "notifications", notifications);
    report.add_series(name + "notify_retries", retries);
    report.add_series(name + "notifications_applied", applied);
    report.add_series(name + "moved_distance_m", moved_m);
    print_ratio_plot(cu_ratios, in_ratios,
                     bench_name + " " + label + " - " + report_name + " ratio",
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
