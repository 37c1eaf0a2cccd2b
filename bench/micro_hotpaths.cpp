// Microbenchmarks (google-benchmark) for the simulator's hot paths: the
// event queue, the medium's broadcast fan-out and the neighbor table (the
// three layers a HELLO reception crosses, DESIGN.md §12), greedy
// forwarding, the strategy math, and a full small flow replay. These bound
// the cost of scaling experiments up.
//
// `--json PATH` (stripped before google-benchmark sees the argv) exports
// the per-benchmark timings as a BENCH_micro.json SweepReport artifact so
// CI can archive them next to the figure artifacts.
#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/imobif.hpp"
#include "exp/experiments.hpp"
#include "net/neighbor_table.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "snap/snapshot.hpp"
#include "util/rng.hpp"

namespace {

using namespace imobif;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // Times are drawn once, outside the timed loop: the benchmark measures
  // the queue, not the generator.
  util::Rng rng(1);
  std::vector<sim::Time> times;
  for (std::size_t i = 0; i < n; ++i) {
    times.push_back(sim::Time::from_ticks(
        static_cast<std::int64_t>(rng.uniform_int(0, 1 << 20))));
  }
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(times[i], sim::EventTag::hello_tick(i));
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().tag.a);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(256)->Arg(4096);

/// The queue as beaconing loads it: N pending HELLO ticks spread over one
/// 10 s interval (beacon_scale holds ~1e5). Each popped tick re-arms
/// itself 10 s later and fans out to ten receivers 5 ms later, as
/// Medium::broadcast does at the paper's density, so about nine in ten
/// popped events are deliveries. Items are events.
void BM_EventQueueBeaconMix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sim::Time period = sim::Time::from_seconds(10.0);
  const sim::Time prop_delay = sim::Time::from_seconds(0.005);
  const std::vector<std::uint32_t> receivers{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  sim::EventQueue q;
  util::Rng rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    q.schedule(sim::Time::from_ticks(static_cast<std::int64_t>(
                   rng.uniform_int(
                       0, static_cast<std::uint64_t>(period.ticks() - 1)))),
               sim::EventTag::hello_tick(i));
  }
  for (auto _ : state) {
    const sim::Event ev = q.pop();
    if (ev.tag.kind == sim::EventTag::Kind::kHelloTick) {
      q.schedule(ev.when + period, ev.tag);
      q.fanout(ev.when + prop_delay, 0, receivers);
    }
    benchmark::DoNotOptimize(ev.tag.a);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueBeaconMix)->Arg(100)->Arg(100000);

/// A network at beacon_scale's density (100 nodes per km², 180 m range:
/// about ten neighbors each) with no beaconing started, for driving single
/// transmissions by hand.
std::unique_ptr<net::Network> beacon_density_network(std::size_t nodes) {
  net::NetworkConfig config;
  config.medium.comm_range_m = 180.0;
  config.node.charge_hello_energy = false;
  auto network = std::make_unique<net::Network>(config);
  const double side = 1000.0 * std::sqrt(static_cast<double>(nodes) / 100.0);
  util::Rng rng(11);
  for (std::size_t i = 0; i < nodes; ++i) {
    network->add_node({rng.uniform(0.0, side), rng.uniform(0.0, side)},
                      util::Joules{2000.0});
  }
  return network;
}

/// HELLOs from a sender rotating over the network, each fanned out by the
/// medium and received by every neighbor: broadcast, delivery scheduling,
/// dispatch, the packet slab, handle_receive and the neighbor-table
/// refresh. Items are deliveries.
void run_fanout(benchmark::State& state, net::Network& network) {
  const std::size_t nodes = network.node_count();
  sim::Simulator& sim = network.simulator();
  const std::uint64_t delivered_before = network.medium().counters().delivered;
  std::size_t sender = 0;
  for (auto _ : state) {
    network.node(static_cast<net::NodeId>(sender)).send_hello_now();
    sim.run();
    sender = (sender + 7919) % nodes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      network.medium().counters().delivered - delivered_before));
}

/// Cold tables, as in beacon_scale: 1e4 nodes, so a receiver's table has
/// left the cache since its last reception.
void BM_MediumBroadcastFanout(benchmark::State& state) {
  const std::unique_ptr<net::Network> network =
      beacon_density_network(static_cast<std::size_t>(state.range(0)));
  run_fanout(state, *network);
}
BENCHMARK(BM_MediumBroadcastFanout)->Arg(10000);

/// Warm tables, as in paper_suite: a 100-node network in which every node
/// has beaconed once before timing starts, so each table already holds
/// its ~9 live neighbors and a reception refreshes one in cache.
void BM_MediumBroadcastFanoutWarm(benchmark::State& state) {
  const std::unique_ptr<net::Network> network =
      beacon_density_network(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < network->node_count(); ++i) {
    network->node(static_cast<net::NodeId>(i)).send_hello_now();
  }
  network->simulator().run();
  run_fanout(state, *network);
}
BENCHMARK(BM_MediumBroadcastFanoutWarm)->Arg(100);

/// HELLO receptions at one node: refreshes of its ~10 neighbors in a
/// shuffled order, with an occasional newcomer and a purge per beacon
/// period.
void BM_NeighborTableUpsert(benchmark::State& state) {
  constexpr std::size_t kNeighbors = 10;
  util::Rng rng(5);
  std::vector<net::NodeId> ids;
  for (std::size_t i = 0; i < 64; ++i) {
    ids.push_back(static_cast<net::NodeId>(rng.uniform_int(0, 99999)));
  }
  net::NeighborTable table(sim::Time::from_seconds(45.0));
  std::int64_t ticks = 0;
  std::size_t k = 0;
  for (auto _ : state) {
    // Mostly the current ten neighbors; every 16th a node from the wider
    // pool, which the timeout later purges.
    const std::size_t pick =
        (k % 16 == 15) ? 10 + (k / 16) % 54 : (k * 7) % kNeighbors;
    ticks += sim::Time::kTicksPerSecond / 10;
    const sim::Time now = sim::Time::from_ticks(ticks);
    table.upsert(ids[pick], {1.0, 2.0}, util::Joules{3.0}, now);
    if (k % 100 == 99) table.purge(now);
    benchmark::DoNotOptimize(table.size());
    ++k;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NeighborTableUpsert);

void BM_RadioModelPower(benchmark::State& state) {
  energy::RadioParams params;
  params.alpha = 2.0;
  const energy::RadioEnergyModel model(params);
  double d = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.power_per_bit(util::Meters{d}));
    d = d < 300.0 ? d + 1.0 : 1.0;
  }
}
BENCHMARK(BM_RadioModelPower);

void BM_MaxLifetimeTarget(benchmark::State& state) {
  core::MaxLifetimeStrategy strategy(2.0);
  core::RelayContext ctx;
  ctx.prev_position = {0.0, 0.0};
  ctx.next_position = {200.0, 40.0};
  ctx.prev_energy = util::Joules{35.0};
  ctx.self_energy = util::Joules{12.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.next_position(ctx));
  }
}
BENCHMARK(BM_MaxLifetimeTarget);

void BM_EvaluateHop(benchmark::State& state) {
  energy::RadioParams params;
  const energy::RadioEnergyModel radio(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate_hop(
        radio, util::Joules{50.0}, util::Joules{3.0}, {0, 0}, {10, 0},
        {150, 0}, {140, 0}, util::Bits{1e6}, true));
  }
}
BENCHMARK(BM_EvaluateHop);

void BM_GridIndexQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(9);
  net::GridIndex index(180.0);
  std::vector<geom::Vec2> points;
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Vec2 p{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
    index.insert(static_cast<net::GridIndex::Id>(i), p);
    points.push_back(p);
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    std::size_t hits = 0;
    index.for_each_in_range(points[cursor], 180.0,
                            [&hits](net::GridIndex::Id, geom::Vec2) {
                              ++hits;
                            });
    benchmark::DoNotOptimize(hits);
    cursor = (cursor + 1) % n;
  }
}
BENCHMARK(BM_GridIndexQuery)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ExactLifetimeSplit(benchmark::State& state) {
  energy::RadioParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::exact_lifetime_split(params, util::Joules{35.0},
                                   util::Joules{12.0}, util::Meters{250.0}));
  }
}
BENCHMARK(BM_ExactLifetimeSplit);

void BM_SampleInstance(benchmark::State& state) {
  exp::ScenarioParams p;
  p.seed = 3;
  util::Rng rng(p.seed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exp::sample_instance(p, rng));
  }
}
BENCHMARK(BM_SampleInstance);

void BM_FullFlowReplay(benchmark::State& state) {
  exp::ScenarioParams p;
  p.seed = 3;
  p.mean_flow_bits = util::Bits{100.0 * 1024.0 * 8.0};
  util::Rng rng(p.seed);
  const exp::FlowInstance inst = exp::sample_instance(p, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exp::run_instance(inst, p, core::MobilityMode::kInformed));
  }
}
BENCHMARK(BM_FullFlowReplay);

/// A fig6(c) run (paper defaults, 1 MB flow, iMobif) stepped one chunk at a
/// time to 100 chunks in, where the checkpoint_roundtrip workload snapshots
/// it: between chunks, packets in flight.
std::unique_ptr<exp::InstanceRun> midflight_fig6c_run() {
  exp::ScenarioParams p = bench::paper_defaults();
  p.mean_flow_bits = util::Bits{bench::kMB};
  util::Rng rng(p.seed);
  exp::FlowInstance instance = exp::sample_instance(p, rng);
  instance.flow_bits = util::Bits{bench::kMB};
  auto run =
      exp::InstanceRun::create(instance, p, core::MobilityMode::kInformed);
  for (int chunk = 0; chunk < 100; ++chunk) {
    bool done = run->advance(1);
    while (!done && run->in_chunk()) done = run->advance(1);
    if (done) break;
  }
  return run;
}

/// snap::encode of the mid-flight run. Bytes are snapshot bytes.
void BM_SnapEncode(benchmark::State& state) {
  const std::unique_ptr<exp::InstanceRun> run = midflight_fig6c_run();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string encoded = snap::encode(*run);
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SnapEncode);

/// snap::state_hash of the mid-flight run: the digest replay bisection
/// takes twice per event.
void BM_SnapStateHash(benchmark::State& state) {
  const std::unique_ptr<exp::InstanceRun> run = midflight_fig6c_run();
  for (auto _ : state) benchmark::DoNotOptimize(snap::state_hash(*run));
}
BENCHMARK(BM_SnapStateHash);

/// snap::restore of the mid-flight run's snapshot, including tearing the
/// restored run down again.
void BM_SnapRestore(benchmark::State& state) {
  const std::string encoded = snap::encode(*midflight_fig6c_run());
  for (auto _ : state) benchmark::DoNotOptimize(snap::restore(encoded));
}
BENCHMARK(BM_SnapRestore);

/// ConsoleReporter that also keeps every iteration run's adjusted timings
/// (nanoseconds, the suite's default unit) for the JSON artifact.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double real_ns = 0.0;
    double cpu_ns = 0.0;
  };

  const std::vector<Entry>& entries() const { return entries_; }

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      entries_.push_back({run.benchmark_name(), run.GetAdjustedRealTime(),
                          run.GetAdjustedCPUTime()});
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip --json before google-benchmark validates the remaining flags.
  std::string json_path;
  std::vector<char*> filtered;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
      continue;
    }
    filtered.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(filtered.size());

  const imobif::bench::Stopwatch stopwatch;
  benchmark::Initialize(&filtered_argc, filtered.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, filtered.data())) {
    return 1;
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    imobif::runtime::SweepReport report("micro_hotpaths");
    report.set_meta("benchmarks",
                    static_cast<std::uint64_t>(reporter.entries().size()));
    for (const CollectingReporter::Entry& entry : reporter.entries()) {
      report.add_series(entry.name + ":real_ns", {entry.real_ns});
      report.add_series(entry.name + ":cpu_ns", {entry.cpu_ns});
    }
    report.set_wall_ms(stopwatch.elapsed_ms());
    report.write_file(json_path);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}
