// scale_sweep: events/sec and bytes/node from 1e2 to 1e6 nodes.
//
// The production-scale charter (ROADMAP item 1, DESIGN.md §12) stands on
// three core changes — grid-only neighbor discovery, struct-of-arrays hot
// state, batched same-tick event draining. This bench charts what they
// buy: for each node count it builds a constant-density network (the
// paper's 100 nodes per 1000 m square, area scaled with sqrt(N)), starts
// HELLO beaconing plus one corner-to-corner greedy flow, drains a fixed
// event budget, and reports executed events, events/sec, and bytes/node
// for the scale-critical structures (NodeStore columns, grid index, event
// queue).
//
// `events_executed` and `bytes_per_node` are deterministic in the seed;
// `events_per_sec` and the wall_ms lines are machine-dependent anchors,
// like the timing fields of every other committed baseline
// (bench/baselines/README.md).
//
//   ./bench/scale_sweep                        # full sweep, 1e2..1e6
//   ./bench/scale_sweep --nodes 1000000        # one point
//   ./bench/scale_sweep --max-nodes 100000     # sweep capped at 1e5 (CI)
//   ./bench/scale_sweep --events 2000000 --json BENCH_scale.json

#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "net/greedy_routing.hpp"
#include "net/network.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace imobif;

struct PointConfig {
  std::size_t nodes = 0;
  std::size_t event_budget = 0;
  std::uint64_t seed = 0;
};

struct PointResult {
  std::size_t nodes = 0;
  double build_ms = 0.0;
  double run_ms = 0.0;
  std::uint64_t events_executed = 0;
  double events_per_sec = 0.0;
  double sim_seconds = 0.0;
  double bytes_per_node = 0.0;
};

PointResult run_point(const PointConfig& point) {
  // Constant density: the paper's 100 nodes in a 1000 m square, area
  // scaled with sqrt(N) so neighborhood sizes — and thus per-event work —
  // stay comparable across the sweep.
  const double side =
      1000.0 * std::sqrt(static_cast<double>(point.nodes) / 100.0);

  net::NetworkConfig config;
  config.medium.comm_range_m = 180.0;
  config.radio.a = 1e-7;
  config.radio.b = 5e-10;
  config.radio.alpha = 2.0;

  const bench::Stopwatch build_watch;
  net::Network network(config);
  util::Rng rng(point.seed);
  for (std::size_t i = 0; i < point.nodes; ++i) {
    network.add_node(
        geom::Vec2{rng.uniform(0.0, side), rng.uniform(0.0, side)},
        util::Joules{2000.0});
  }
  network.set_routing(
      std::make_unique<net::GreedyRouting>(network.medium()));

  // One corner-to-corner flow through the greedy data plane; endpoints
  // come from the grid's nearest() so the pick is deterministic and
  // touches the new query path.
  const auto src = network.medium().grid().nearest(
      geom::Vec2{0.05 * side, 0.05 * side}, side);
  const auto dst = network.medium().grid().nearest(
      geom::Vec2{0.95 * side, 0.95 * side}, side);
  network.start_hellos();
  if (src.has_value() && dst.has_value() && src->id != dst->id) {
    net::FlowSpec flow;
    flow.id = 1;
    flow.source = src->id;
    flow.destination = dst->id;
    flow.length_bits = util::Bits{1e12};  // outlasts any event budget
    network.start_flow(flow);
  }
  PointResult result;
  result.nodes = point.nodes;
  result.build_ms = build_watch.elapsed_ms();

  const bench::Stopwatch run_watch;
  const std::size_t before = network.simulator().executed_events();
  const sim::Time start = network.simulator().now();
  network.simulator().run(sim::Time::infinity(), point.event_budget);
  result.run_ms = run_watch.elapsed_ms();
  result.events_executed = network.simulator().executed_events() - before;
  result.sim_seconds = (network.simulator().now() - start).seconds();
  result.events_per_sec =
      result.run_ms > 0.0
          ? static_cast<double>(result.events_executed) /
                (result.run_ms / 1000.0)
          : 0.0;
  const std::size_t hot_bytes = network.store().approx_bytes() +
                                network.medium().grid().approx_bytes() +
                                network.simulator().queue_approx_bytes();
  result.bytes_per_node =
      static_cast<double>(hot_bytes) / static_cast<double>(point.nodes);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: " << args.program()
              << " [--nodes N] [--max-nodes M] [--events B] [--seed S]"
                 " [--json PATH]\n"
                 "  --nodes      run a single point at N nodes\n"
                 "  --max-nodes  cap the default 1e2..1e6 sweep at M\n"
                 "  --events     event budget per point (default 2000000)\n"
                 "  --seed       topology seed (default 20050610)\n"
                 "  --json       write a BENCH_scale.json artifact\n";
    return 0;
  }
  const auto event_budget =
      args.get_unsigned<std::size_t>("events", 2000000);
  const auto seed = args.get_unsigned<std::uint64_t>("seed", 20050610);
  const std::string json_path = args.get_string("json", "");

  std::vector<std::size_t> counts;
  if (args.has("nodes")) {
    counts.push_back(args.get_unsigned<std::size_t>("nodes", 100));
  } else {
    const auto max_nodes =
        args.get_unsigned<std::size_t>("max-nodes", 1000000);
    for (std::size_t n = 100; n <= max_nodes; n *= 10) counts.push_back(n);
  }

  bench::print_header("scale sweep: events/sec and bytes/node vs node count");
  std::cout << "event budget " << event_budget << " per point, seed " << seed
            << "\n\n";

  const bench::Stopwatch total_watch;
  util::Table table({"nodes", "build ms", "run ms", "events", "events/s",
                     "sim s", "bytes/node"});
  std::vector<PointResult> results;
  for (const std::size_t nodes : counts) {
    PointConfig point;
    point.nodes = nodes;
    point.event_budget = event_budget;
    point.seed = seed;
    results.push_back(run_point(point));
    const PointResult& r = results.back();
    table.add_row({std::to_string(r.nodes), util::Table::num(r.build_ms, 1),
                   util::Table::num(r.run_ms, 1),
                   std::to_string(r.events_executed),
                   util::Table::num(r.events_per_sec, 4),
                   util::Table::num(r.sim_seconds, 2),
                   util::Table::num(r.bytes_per_node, 1)});
  }
  table.print(std::cout);

  if (!json_path.empty()) {
    runtime::SweepReport report("scale_sweep");
    report.set_meta("event_budget",
                    static_cast<std::uint64_t>(event_budget));
    report.set_meta("seed", seed);
    std::vector<double> nodes_s, events_s, eps_s, bpn_s, sim_s;
    for (const PointResult& r : results) {
      nodes_s.push_back(static_cast<double>(r.nodes));
      events_s.push_back(static_cast<double>(r.events_executed));
      eps_s.push_back(r.events_per_sec);
      bpn_s.push_back(r.bytes_per_node);
      sim_s.push_back(r.sim_seconds);
    }
    report.add_series("nodes", nodes_s);
    report.add_series("events_executed", events_s);
    report.add_series("events_per_sec", eps_s);
    report.add_series("bytes_per_node", bpn_s);
    report.add_series("sim_seconds", sim_s);
    report.set_wall_ms(total_watch.elapsed_ms());
    report.write_file(json_path);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
