// perfbench: runs one benchmark workload and reports its metrics.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--repo-root DIR] [--reference FILE]
//             [--trace-out FILE]
//   perfbench --print-reference [--repo-root DIR]
//
// --trace 0 measures one part of a run (run.py runs several, each in a
// fresh process): one to 25 set-ups (setup_s is their median), then
// batches until S seconds have passed, or the workload's fixed number of
// batches; the other end-to-end metrics are medians over the batches.
// --trace 1 runs a batch plain and the same batch with the decorators of
// lib/trace.hpp installed, and reports the per-layer metrics.
// --print-reference prints the reference digest of every input variant.
//
// The last line on stdout is one JSON object with the keys correct,
// attempted, failed and metrics; with --trace 0 also window_s, the seconds
// the batches took. A run is correct when no operation failed and every
// checked digest equals the committed reference; an incorrect run exits 1
// after printing its result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lib/digest.hpp"
#include "lib/trace.hpp"
#include "lib/workloads.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Linearly interpolated quantile, q in [0, 1]; 0 for no samples.
double quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  imobif::util::Empirical dist;
  dist.add_all(v);
  return dist.quantile(q);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  imobif::util::Empirical dist;
  dist.add_all(v);
  return dist.mean();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Peak resident set of this program (VmHWM). Not getrusage's ru_maxrss:
/// that survives exec, so it would report the launching process's peak
/// whenever that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// "workload variant digest" lines; '#' starts a comment.
std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> load_reference(
    const std::string& path) {
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> ref;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hex;
    std::uint64_t variant = 0;
    if (fields >> name >> variant >> hex) {
      ref[{name, variant}] = std::stoull(hex, nullptr, 16);
    }
  }
  return ref;
}

/// `window_s` < 0 leaves the window_s key out.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics, double window_s = -1.0) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-28s %.6g\n", "error_rate",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  if (window_s >= 0.0) std::printf("\"window_s\": %.17g, ", window_s);
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Per-layer metrics of a traced batch. `plain_wall_s` is the same batch
/// run without tracing; `traced_wall_s` with it.
std::vector<Metric> layer_metrics(const std::string& workload, const Tracer& t,
                                  double plain_wall_s, double traced_wall_s,
                                  std::size_t workers) {
  std::vector<Metric> m;
  auto count = [&](const std::string& name) {
    return static_cast<double>(t.stat(name).calls);
  };
  const bool network_workload =
      workload == "beacon_scale" || workload == "dataplane_flows";

  // sim: busy simulator time per executed event — the plain window for the
  // network workloads, create + advance spans for the InstanceRun ones.
  const double events = count("sim.events");
  double sim_ns = plain_wall_s * 1e9;
  if (!network_workload) {
    sim_ns = 0.0;
    for (const char* name : {"exp.create", "exp.advance", "exp.create.mob",
                             "exp.advance.mob"}) {
      sim_ns += static_cast<double>(t.stat(name).ns);
    }
  }
  m.push_back({"sim.events", events, "count"});
  m.push_back({"sim.ns_per_event", ratio(sim_ns, events), "ns"});
  m.push_back({"sim.pending_peak", quantile(t.samples("sim.pending"), 1.0), "count"});

  // net: medium fan-out and the data plane.
  const double broadcasts = count("net.broadcasts");
  const double unicasts = count("net.unicasts");
  const double delivered = count("net.delivered");
  m.push_back({"net.broadcasts", broadcasts, "count"});
  m.push_back({"net.delivered", delivered, "count"});
  m.push_back({"net.fanout", ratio(delivered - unicasts, broadcasts), "ratio"});
  m.push_back({"net.neighbor_entries", mean(t.samples("net.neighbor_entries")), "count"});
  m.push_back({"net.hot_bytes_per_node", mean(t.samples("net.hot_bytes_per_node")), "B"});
  m.push_back({"net.unicasts", unicasts, "count"});
  m.push_back({"net.data_share", ratio(unicasts, delivered), "ratio"});
  m.push_back({"net.dropped", count("net.dropped"), "count"});
  m.push_back({"net.routing.calls", count("net.routing"), "count"});
  m.push_back({"net.routing.ns", t.stat("net.routing").mean_ns(), "ns"});

  // core: the policy hooks.
  for (const char* hook : {"seed", "relay", "after_forward", "evaluate"}) {
    const std::string name = std::string("core.") + hook;
    m.push_back({name + ".calls", count(name), "count"});
    m.push_back({name + ".ns", t.stat(name).mean_ns(), "ns"});
  }
  m.push_back({"core.movements", count("core.movements"), "count"});
  m.push_back({"core.notifications", count("tap.notifications"), "count"});
  m.push_back({"core.notify_applied_ratio",
               ratio(count("tap.notifications_applied"), count("tap.notifications")),
               "ratio"});

  // exp: static panels, then mobility cells.
  for (const std::string sfx : {"", ".mob"}) {
    for (const char* phase : {"sample", "create", "advance", "result"}) {
      const std::string name = std::string("exp.") + phase;
      m.push_back({name + ".ns" + sfx, t.stat(name + sfx).mean_ns(), "ns"});
    }
    const std::vector<double> runs = t.samples("exp.run_ms" + sfx);
    m.push_back({"exp.run_ms_p50" + sfx, quantile(runs, 0.5), "ms"});
    m.push_back({"exp.run_ms_p90" + sfx, quantile(runs, 0.9), "ms"});
    m.push_back({"exp.runs" + sfx, static_cast<double>(runs.size()), "count"});
  }

  // runtime: the sweep thread pool.
  const CallStat pool = t.stat("runtime.pool");
  m.push_back({"runtime.busy_frac",
               ratio(static_cast<double>(t.stat("runtime.task").ns),
                     static_cast<double>(pool.ns) * static_cast<double>(workers)),
               "ratio"});
  m.push_back({"runtime.tail_s", static_cast<double>(t.stat("runtime.tail").ns) / 1e9, "s"});
  m.push_back({"runtime.tasks", count("runtime.task"), "count"});

  // snap: checkpoint writes and reads.
  const CallStat encode = t.stat("snap.encode");
  const CallStat restore = t.stat("snap.restore");
  const CallStat hash = t.stat("snap.state_hash");
  m.push_back({"snap.encode.calls", static_cast<double>(encode.calls), "count"});
  m.push_back({"snap.encode.ns", encode.mean_ns(), "ns"});
  m.push_back({"snap.encode.bytes", mean(t.samples("snap.encode.bytes")), "B"});
  m.push_back({"snap.restore.ns", restore.mean_ns(), "ns"});
  m.push_back({"snap.state_hash.ns", hash.mean_ns(), "ns"});
  m.push_back({"snap.wall_frac",
               ratio(static_cast<double>(encode.ns + restore.ns + hash.ns) / 1e9,
                     traced_wall_s),
               "ratio"});

  m.push_back({"trace.overhead_frac", ratio(traced_wall_s, plain_wall_s) - 1.0, "ratio"});
  m.push_back({"trace.spans", static_cast<double>(t.span_count()), "count"});
  return m;
}

int print_reference(WorkloadConfig config) {
  config.uninterrupted = true;
  std::printf("# workload variant digest (perfbench --print-reference)\n");
  for (const std::string& name : workload_names()) {
    for (std::uint64_t v = 0; v < kVariants; ++v) {
      config.variant = v;
      const BatchResult r = make_workload(name, config)->run_batch(nullptr);
      if (r.failed != 0) {
        std::fprintf(stderr, "%s variant %llu: %llu failed operations\n", name.c_str(),
                     static_cast<unsigned long long>(v),
                     static_cast<unsigned long long>(r.failed));
        return 1;
      }
      std::printf("%s %llu %s\n", name.c_str(), static_cast<unsigned long long>(v),
                  to_hex(r.digest).c_str());
      std::fflush(stdout);
    }
  }
  return 0;
}

int run(const imobif::util::Args& args) {
  WorkloadConfig config;
  config.repo_root = args.get_string("repo-root", ".");
  config.workers = std::max(1u, std::thread::hardware_concurrency());
  if (args.has("print-reference")) return print_reference(config);

  const std::string workload = args.get_string("workload", "");
  const std::uint64_t seed = std::stoull(args.get_string("seed", "0"));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  config.variant = seed % kVariants;

  const auto reference =
      load_reference(args.get_string("reference", "perfbench/reference_digests.txt"));
  const auto ref_it = reference.find({workload, config.variant});
  if (ref_it == reference.end()) {
    std::fprintf(stderr, "no reference digest for %s variant %llu\n", workload.c_str(),
                 static_cast<unsigned long long>(config.variant));
    return 1;
  }
  const std::uint64_t expected = ref_it->second;
  std::printf("workload %s seed %llu (input variant %llu), %zu workers\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(config.variant), config.workers);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto check = [&](std::uint64_t digest, std::uint64_t want, const char* what) {
    ++attempted;
    if (digest != want) {
      ++failed;
      std::printf("digest mismatch (%s): got %s, want %s\n", what, to_hex(digest).c_str(),
                  to_hex(want).c_str());
    }
  };
  auto tally = [&](const BatchResult& r) {
    attempted += r.attempted;
    failed += r.failed;
  };

  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  auto setup = [&] {
    w.reset();
    const std::int64_t start = now_ns();
    w = make_workload(workload, config);
    setup_s.push_back(seconds_since(start));
  };

  if (!trace) {
    // At least one and at most 25 set-ups, while set-up has taken less than
    // a second; setup_s is their median. The last one is measured.
    double setup_total = 0.0;
    while (setup_s.empty() || (setup_s.size() < 25 && setup_total < 1.0)) {
      setup();
      setup_total += setup_s.back();
    }
    // A fixed number of batches if the workload's batches differ, else
    // batches until the window is used up; a batch that would end past the
    // window by more than half its length is not started.
    const std::size_t fixed = w->batches_per_part();
    std::vector<double> wall, sim_rate, event_rate, run_rate;
    const std::int64_t window_start = now_ns();
    while (fixed != 0 ? wall.size() < fixed
                      : wall.empty() ||
                            seconds_since(window_start) + 0.5 * wall.back() < seconds) {
      const std::int64_t start = now_ns();
      const BatchResult r = w->run_batch(nullptr);
      const double batch_s = seconds_since(start);
      tally(r);
      if (wall.empty() || w->repeats()) check(r.digest, expected, "batch");
      wall.push_back(batch_s);
      sim_rate.push_back(r.sim_s / batch_s);
      event_rate.push_back(r.events / batch_s);
      run_rate.push_back(r.runs / batch_s);
    }
    const double window_s = seconds_since(window_start);
    std::printf("%zu set-ups, %zu batches in %.3f s (batch wall %.4g .. %.4g s)\n",
                setup_s.size(), wall.size(), window_s,
                *std::min_element(wall.begin(), wall.end()),
                *std::max_element(wall.begin(), wall.end()));
    print_result(failed == 0, attempted, failed,
                 {{"setup_s", median(setup_s), "s"},
                  {"wall_s", median(wall), "s"},
                  {"sim_s_per_wall_s", median(sim_rate), "s/s"},
                  {"events_per_s", median(event_rate), "1/s"},
                  {"runs_per_s", median(run_rate), "1/s"},
                  {"peak_rss_mb", peak_rss_mb(), "MB"}},
                 window_s);
    return failed == 0 ? 0 : 1;
  }

  // Traced: the same batch plain and instrumented, from identical state.
  // Evolving workloads compare their second batches, each network set up
  // afresh, so both timed batches start equally warm.
  setup();
  std::int64_t start = now_ns();
  BatchResult plain = w->run_batch(nullptr);
  double plain_s = seconds_since(start);
  tally(plain);
  check(plain.digest, expected, "plain batch");
  if (!w->repeats()) {
    start = now_ns();
    plain = w->run_batch(nullptr);
    plain_s = seconds_since(start);
    tally(plain);
    setup();
    const BatchResult first = w->run_batch(nullptr);
    tally(first);
    check(first.digest, expected, "plain batch after fresh set-up");
  }
  Tracer tracer;
  start = now_ns();
  const BatchResult traced = w->run_batch(&tracer);
  const double traced_s = seconds_since(start);
  tally(traced);
  check(traced.digest, plain.digest, "traced vs plain");
  std::printf("plain %.3f s, traced %.3f s, %zu spans\n", plain_s, traced_s,
              tracer.span_count());
  const std::string trace_out = args.get_string("trace-out", "");
  if (!trace_out.empty()) tracer.write_jsonl(trace_out);
  print_result(failed == 0, attempted, failed,
               layer_metrics(workload, tracer, plain_s, traced_s, config.workers));
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(imobif::util::Args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
