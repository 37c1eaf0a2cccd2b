// Shared helpers for the figure-reproduction binaries.
#pragma once

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/experiments.hpp"
#include "runtime/report.hpp"
#include "runtime/sweep.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace imobif::bench {

/// Flags shared by every bench binary:
///   --instances N   flow instances per series (positional N still works)
///   --jobs N        worker threads for the sweep (default 1)
///   --json PATH     write a BENCH_*.json artifact of the result series
///   --checkpoint-dir D  persist per-unit results/checkpoints under D
///   --resume        reuse results/checkpoints found in --checkpoint-dir
///   --checkpoint-every-s T  checkpoint cadence in sim-seconds (default 30)
struct BenchConfig {
  std::size_t instances = 0;
  std::size_t jobs = 1;
  std::string json_path;
  runtime::CheckpointOptions checkpoint;
};

/// Parses an instance count (--instances or positional N): a whole number
/// >= 1 with nothing trailing. Throws std::invalid_argument naming the
/// flag otherwise.
inline std::size_t parse_instances(const std::string& text) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value == 0) {
    throw std::invalid_argument(
        "Args: --instances expects a positive integer, got " + text);
  }
  return value;
}

/// `extra_usage` is appended to --help for binaries with their own flags.
inline BenchConfig parse_bench_args(int argc, char** argv,
                                    std::size_t default_instances,
                                    const char* extra_usage = "") {
  const util::Args args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: " << args.program()
              << " [N] [--instances N] [--jobs N] [--json PATH]\n"
                 "       [--checkpoint-dir D] [--resume]"
                 " [--checkpoint-every-s T]\n"
                 "  N / --instances  flow instances per series (default "
              << default_instances
              << ")\n"
                 "  --jobs           worker threads (default 1)\n"
                 "  --json           write results as a JSON artifact\n"
                 "  --checkpoint-dir persist per-unit results and periodic\n"
                 "                   checkpoints so a killed sweep can resume\n"
                 "  --resume         reuse files found in --checkpoint-dir\n"
                 "  --checkpoint-every-s  checkpoint cadence in simulated\n"
                 "                   seconds (default 30)\n"
              << extra_usage;
    std::exit(0);
  }
  BenchConfig config;
  config.instances = default_instances;
  if (args.has("instances")) {
    config.instances = parse_instances(args.get_string("instances"));
  } else if (!args.positional().empty()) {
    config.instances = parse_instances(args.positional().front());
  }
  const std::int64_t jobs = args.get_int("jobs", 1);
  config.jobs = jobs < 1 ? 1 : static_cast<std::size_t>(jobs);
  config.json_path = args.get_string("json", "");
  config.checkpoint.dir = args.get_string("checkpoint-dir", "");
  config.checkpoint.resume = args.get_bool("resume", false);
  config.checkpoint.every_sim_s =
      args.get_double("checkpoint-every-s", config.checkpoint.every_sim_s);
  // A negative or NaN cadence would run the sweep with no checkpoints.
  const double every = config.checkpoint.every_sim_s;
  if (!std::isfinite(every) || every < 0.0) {
    throw std::invalid_argument(
        "Args: --checkpoint-every-s expects a finite number of seconds >= 0, "
        "got " + args.get_string("checkpoint-every-s"));
  }
  return config;
}

/// Accumulates medium drop counters and notification-reliability totals
/// across runs, for the "counters" block of a JSON artifact.
struct FaultCounters {
  net::Medium::Counters medium;
  std::uint64_t notify_retries = 0;
  std::uint64_t notifications_applied = 0;

  void add(const exp::RunResult& run) {
    medium.broadcasts += run.medium.broadcasts;
    medium.unicasts += run.medium.unicasts;
    medium.delivered += run.medium.delivered;
    medium.dropped_out_of_range += run.medium.dropped_out_of_range;
    medium.dropped_dead += run.medium.dropped_dead;
    medium.dropped_unknown += run.medium.dropped_unknown;
    medium.dropped_injected += run.medium.dropped_injected;
    medium.dropped_faulted += run.medium.dropped_faulted;
    notify_retries += run.notify_retries;
    notifications_applied += run.notifications_applied;
  }

  void add(const std::vector<exp::ComparisonPoint>& points) {
    for (const auto& pt : points) {
      add(pt.baseline);
      add(pt.cost_unaware);
      add(pt.informed);
    }
  }

  void export_to(runtime::SweepReport& report) const {
    report.set_counter("unicasts", medium.unicasts);
    report.set_counter("delivered", medium.delivered);
    report.set_counter("dropped_out_of_range", medium.dropped_out_of_range);
    report.set_counter("dropped_dead", medium.dropped_dead);
    report.set_counter("dropped_unknown", medium.dropped_unknown);
    report.set_counter("dropped_injected", medium.dropped_injected);
    report.set_counter("dropped_faulted", medium.dropped_faulted);
    report.set_counter("notify_retries", notify_retries);
    report.set_counter("notifications_applied", notifications_applied);
  }
};

/// runtime::run_comparison_parallel under the bench's --jobs and
/// checkpoint flags: bit-identical results for any --jobs value, and
/// crash-resumable when --checkpoint-dir is set (unit files are keyed by
/// a digest of the scenario and options, so panels never collide).
inline std::vector<exp::ComparisonPoint> run_comparison(
    const exp::ScenarioParams& params, const BenchConfig& config,
    const exp::RunOptions& options = {}) {
  return runtime::run_comparison_parallel(params, config.instances, options,
                                          config.jobs, config.checkpoint);
}

/// Monotonic milliseconds-since-construction stopwatch for wall_ms.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Writes the report when --json was given; stamps the common meta first.
/// --jobs is deliberately NOT recorded: aside from the wall_ms line, the
/// artifact must be byte-identical regardless of worker count.
inline void export_report(runtime::SweepReport& report,
                          const BenchConfig& config,
                          const Stopwatch& stopwatch) {
  if (config.json_path.empty()) return;
  report.set_meta("instances", static_cast<std::uint64_t>(config.instances));
  report.set_wall_ms(stopwatch.elapsed_ms());
  report.write_file(config.json_path);
  std::cout << "\nwrote " << config.json_path << " (" << config.jobs
            << " jobs, " << util::Table::num(stopwatch.elapsed_ms(), 5)
            << " ms)\n";
}

/// Paper-default scenario (DESIGN.md parameter reconstruction).
inline exp::ScenarioParams paper_defaults() {
  exp::ScenarioParams p;
  p.area_m = util::Meters{1000.0};
  p.node_count = 100;
  p.comm_range_m = util::Meters{180.0};
  p.radio.a = 1e-7;
  p.radio.b = 5e-10;
  p.radio.alpha = 2.0;
  p.mobility.k = 0.5;
  p.mobility.max_step_m = 1.0;
  p.initial_energy_j = util::Joules{2000.0};
  p.packet_bits = util::Bits{8192.0};        // 1 KB packets
  p.rate_bps = util::BitsPerSecond{8192.0};  // 1 KB/s = 8 Kbps
  p.seed = 20050610;       // ICDCS 2005
  return p;
}

inline constexpr double kKB = 1024.0 * 8.0;
inline constexpr double kMB = 1024.0 * kKB;

/// Amplifier coefficient for alpha = 3 runs (unit differs from alpha = 2;
/// calibrated per DESIGN.md).
inline constexpr double kAmplifierAlpha3 = 3e-12;

inline void print_header(const std::string& title) {
  std::cout << "\n" << std::string(74, '=') << "\n"
            << title << "\n"
            << std::string(74, '=') << "\n";
}

}  // namespace imobif::bench
