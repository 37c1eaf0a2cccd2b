#include "lib/workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench_common.hpp"
#include "core/imobif_policy.hpp"
#include "exp/experiments.hpp"
#include "exp/instance.hpp"
#include "exp/instance_run.hpp"
#include "lib/digest.hpp"
#include "net/greedy_routing.hpp"
#include "runtime/sweep.hpp"
#include "runtime/thread_pool.hpp"
#include "snap/snapshot.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace imobif;

constexpr std::array<core::MobilityMode, 3> kModes = {
    core::MobilityMode::kNoMobility, core::MobilityMode::kCostUnaware,
    core::MobilityMode::kInformed};

std::atomic<std::uint64_t> g_next_run{1};
std::uint64_t next_run_id() { return g_next_run.fetch_add(1); }

/// Per-workload input seed: distinct streams for distinct workloads. 63
/// bits, because a snapshot stores the scenario seed as a signed integer.
std::uint64_t input_seed(std::uint64_t variant, std::uint64_t salt) {
  return runtime::derive_seed(salt, variant) >> 1;
}

/// scale_sweep's network: the paper's range and radio, default node config.
net::NetworkConfig paper_network_config() {
  net::NetworkConfig config;
  config.medium.comm_range_m = 180.0;
  config.radio.a = 1e-7;
  config.radio.b = 5e-10;
  config.radio.alpha = 2.0;
  return config;
}

/// Simulated seconds a comparison run covered: warmup plus the flow phase.
double run_sim_seconds(const exp::ScenarioParams& p, const exp::RunResult& r) {
  return p.warmup_s.value() + r.lifetime_s.value();
}

net::Medium::Counters minus(net::Medium::Counters a,
                            const net::Medium::Counters& b) {
  a.broadcasts -= b.broadcasts;
  a.unicasts -= b.unicasts;
  a.delivered -= b.delivered;
  a.dropped_out_of_range -= b.dropped_out_of_range;
  a.dropped_dead -= b.dropped_dead;
  a.dropped_unknown -= b.dropped_unknown;
  a.dropped_injected -= b.dropped_injected;
  a.dropped_faulted -= b.dropped_faulted;
  return a;
}

void count_medium(SpanLog& log, const net::Medium::Counters& c) {
  log.stat("net.broadcasts").calls += c.broadcasts;
  log.stat("net.unicasts").calls += c.unicasts;
  log.stat("net.delivered").calls += c.delivered;
  log.stat("net.dropped").calls += c.dropped_out_of_range + c.dropped_dead +
                                   c.dropped_unknown + c.dropped_injected +
                                   c.dropped_faulted;
}

/// Neighbor-table entries per node and hot-state bytes per node (NodeStore
/// columns, grid index, event queue — the scale_sweep accounting).
void sample_network_state(SpanLog& log, net::Network& network) {
  std::size_t entries = 0;
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    entries += network.node(static_cast<net::NodeId>(i)).neighbors().size();
  }
  const auto nodes = static_cast<double>(network.node_count());
  log.sample("net.neighbor_entries", static_cast<double>(entries) / nodes);
  const std::size_t hot = network.store().approx_bytes() +
                          network.medium().grid().approx_bytes() +
                          network.simulator().queue_approx_bytes();
  log.sample("net.hot_bytes_per_node", static_cast<double>(hot) / nodes);
}

// ---------------------------------------------------------------- suite --

struct Scenario {
  exp::ScenarioParams params;
  std::size_t instances = 0;
  bool mob = false;  ///< a mobility x traffic cell (metrics get ".mob")
};

std::vector<Scenario> paper_scenarios(const std::string& repo_root) {
  std::vector<Scenario> out;
  // fig6 panels (a), (c)-(f) at the binary's default 40 instances.
  struct Panel {
    double k, alpha, mean_bits;
  };
  for (const Panel& panel : {Panel{0.5, 2.0, 100.0 * bench::kKB},
                             Panel{0.5, 2.0, bench::kMB}, Panel{1.0, 2.0, bench::kMB},
                             Panel{0.1, 2.0, bench::kMB}, Panel{0.5, 3.0, bench::kMB}}) {
    exp::ScenarioParams p = bench::paper_defaults();
    p.mobility.k = panel.k;
    p.radio.alpha = panel.alpha;
    if (panel.alpha == 3.0) p.radio.b = bench::kAmplifierAlpha3;
    p.mean_flow_bits = util::Bits{panel.mean_bits};
    out.push_back({p, 40, false});
  }
  // mobility_sweep's grid at its default 4 instances per cell: three
  // motion models x three traffic models, plus the trace-replay cell.
  std::vector<std::pair<mob::ModelId, traffic::ModelId>> cells;
  for (const mob::ModelId m :
       {mob::ModelId::kRandomWaypoint, mob::ModelId::kGaussMarkov,
        mob::ModelId::kGroup}) {
    for (const traffic::ModelId t :
         {traffic::ModelId::kCbr, traffic::ModelId::kOnOff,
          traffic::ModelId::kPareto}) {
      cells.emplace_back(m, t);
    }
  }
  cells.emplace_back(mob::ModelId::kTrace, traffic::ModelId::kCbr);
  for (const auto& [m, t] : cells) {
    exp::ScenarioParams p = bench::paper_defaults();
    p.mean_flow_bits = util::Bits{bench::kMB};
    p.mob.model = m;
    if (m == mob::ModelId::kTrace) {
      p.mob.trace_file = repo_root + "/bench/traces/demo.trace";
    } else {
      p.mob.update_s = util::Seconds{1.0};
      p.mob.speed_min = util::MetersPerSecond{0.5};
      p.mob.speed_max = util::MetersPerSecond{2.0};
      p.mob.pause_s = util::Seconds{10.0};
    }
    p.traffic.model = t;
    out.push_back({p, 4, true});
  }
  return out;
}

void hash_point(Digest& d, const exp::ComparisonPoint& pt) {
  d.f64(pt.flow_bits.value());
  d.u64(pt.hops);
  hash_result(d, pt.baseline);
  hash_result(d, pt.cost_unaware);
  hash_result(d, pt.informed);
}

/// One comparison instance, instrumented: the traced twin of the work one
/// run_comparison_parallel task does.
struct TracedTask {
  exp::ComparisonPoint point;
  std::thread::id thread;
  std::int64_t end_ns = 0;
};

TracedTask traced_point(const Scenario& s, util::Rng rng, Tracer& tracer) {
  const std::string sfx = s.mob ? ".mob" : "";
  SpanLog log(next_run_id());
  TracedTask task;
  task.thread = std::this_thread::get_id();
  {
    const ScopedSpan task_span(&log, "runtime.task");
    exp::FlowInstance instance;
    {
      const ScopedSpan span(&log, "exp.sample" + sfx);
      instance = exp::sample_instance(s.params, rng);
    }
    task.point.flow_bits = instance.flow_bits;
    task.point.hops = instance.initial_path.size() - 1;
    for (const core::MobilityMode mode : kModes) {
      const std::int64_t start = now_ns();
      std::unique_ptr<exp::InstanceRun> run;
      {
        const ScopedSpan span(&log, "exp.create" + sfx);
        run = exp::InstanceRun::create(instance, s.params, mode);
      }
      const Instruments instruments(run->network(), &run->policy());
      run->set_checkpoint_hook([&log](exp::InstanceRun& r) {
        log.sample("sim.pending", static_cast<double>(
                                      r.network().simulator().pending_events()));
      });
      {
        const ScopedSpan span(&log, "exp.advance" + sfx);
        run->advance();
      }
      exp::RunResult result;
      {
        const ScopedSpan span(&log, "exp.result" + sfx);
        result = run->result();
      }
      log.sample("exp.run_ms" + sfx, static_cast<double>(now_ns() - start) / 1e6);
      instruments.flush_to(log);
      log.stat("sim.events").calls += run->network().simulator().executed_events();
      log.stat("core.movements").calls += result.movements;
      count_medium(log, result.medium);
      sample_network_state(log, run->network());
      switch (mode) {
        case core::MobilityMode::kNoMobility: task.point.baseline = result; break;
        case core::MobilityMode::kCostUnaware: task.point.cost_unaware = result; break;
        case core::MobilityMode::kInformed: task.point.informed = result; break;
      }
    }
  }
  task.end_ns = now_ns();
  tracer.merge(std::move(log));
  return task;
}

class PaperSuite final : public Workload {
 public:
  explicit PaperSuite(const WorkloadConfig& config)
      : scenarios_(paper_scenarios(config.repo_root)),
        workers_(std::max<std::size_t>(1, config.workers)) {
    for (const Scenario& s : scenarios_) s.params.validate();
    // The suite's inputs are the figures' own (fixed) scenarios; the seed
    // only permutes the order the scenarios run in.
    order_.resize(scenarios_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    util::Rng rng(input_seed(config.variant, 0x5u));
    std::shuffle(order_.begin(), order_.end(), rng);
    // Warm caches and lazy state: build (and warm up) each scenario's first
    // instance once, discarding it.
    for (const Scenario& s : scenarios_) {
      util::Rng root(s.params.seed);
      util::Rng first = root.fork();
      const exp::FlowInstance instance = exp::sample_instance(s.params, first);
      exp::InstanceRun::create(instance, s.params, core::MobilityMode::kInformed);
    }
  }

  bool repeats() const override { return true; }
  std::size_t batches_per_part() const override { return 0; }

  BatchResult run_batch(Tracer* tracer) override {
    BatchResult out;
    std::vector<std::uint64_t> digests(scenarios_.size(), 0);
    for (const std::size_t index : order_) {
      const Scenario& s = scenarios_[index];
      out.attempted += 3 * s.instances;
      std::vector<exp::ComparisonPoint> points;
      try {
        points = tracer ? run_traced(s, *tracer)
                        : runtime::run_comparison_parallel(
                              s.params, s.instances, {}, workers_);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "paper_suite: scenario %zu failed: %s\n", index, e.what());
        out.failed += 3 * s.instances;
        continue;
      }
      Digest d;
      for (const exp::ComparisonPoint& pt : points) {
        hash_point(d, pt);
        for (const exp::RunResult* r :
             {&pt.baseline, &pt.cost_unaware, &pt.informed}) {
          out.sim_s += run_sim_seconds(s.params, *r);
          out.events += static_cast<double>(r->medium.delivered);
          out.runs += 1.0;
        }
      }
      digests[index] = d.value();
    }
    Digest all;
    for (const std::uint64_t d : digests) all.u64(d);
    out.digest = all.value();
    return out;
  }

 private:
  /// run_comparison_parallel's schedule — the same fork chain, one pool
  /// task per instance, ordered collection — with every task traced.
  std::vector<exp::ComparisonPoint> run_traced(const Scenario& s,
                                               Tracer& tracer) {
    util::Rng root(s.params.seed);
    std::vector<util::Rng> rngs;
    for (std::size_t i = 0; i < s.instances; ++i) rngs.push_back(root.fork());

    const std::int64_t start = now_ns();
    std::vector<TracedTask> tasks;
    {
      runtime::ThreadPool pool(workers_);
      std::vector<std::future<TracedTask>> futures;
      for (std::size_t i = 0; i < s.instances; ++i) {
        futures.push_back(pool.submit([&s, rng = rngs[i], &tracer] {
          return traced_point(s, rng, tracer);
        }));
      }
      for (auto& f : futures) tasks.push_back(f.get());
    }
    const std::int64_t end = now_ns();

    // Idle worker time behind the slowest instance: each worker waits from
    // its last task's end until the pool is done.
    std::map<std::thread::id, std::int64_t> last_end;
    for (const TracedTask& t : tasks) {
      last_end[t.thread] = std::max(last_end[t.thread], t.end_ns);
    }
    std::int64_t idle = static_cast<std::int64_t>(workers_ - last_end.size()) *
                        (end - start);
    for (const auto& [thread, t_end] : last_end) idle += end - t_end;
    SpanLog log(next_run_id());
    log.stat("runtime.pool").add(end - start);
    log.stat("runtime.tail").add(idle / static_cast<std::int64_t>(workers_));
    tracer.merge(std::move(log));

    std::vector<exp::ComparisonPoint> points;
    for (TracedTask& t : tasks) points.push_back(std::move(t.point));
    return points;
  }

  std::vector<Scenario> scenarios_;
  std::vector<std::size_t> order_;
  std::size_t workers_;
};

// ------------------------------------------------------ network workloads --

constexpr double kNetworkWarmupS = 11.0;  ///< every node has beaconed once
constexpr double kWindowS = 2.0;          ///< simulated seconds per batch

/// Advances `network` by one fixed simulated window in one-second steps.
/// With a tracer, the decorators are installed first (once per network;
/// `instruments` keeps them alive as long as the network) and the window's
/// counts and timings are merged into the tracer.
BatchResult advance_window(net::Network& network, core::ImobifPolicy* policy,
                           Tracer* tracer,
                           std::unique_ptr<Instruments>& instruments) {
  sim::Simulator& sim = network.simulator();
  const net::Medium::Counters before = network.medium().counters();
  const std::size_t events_before = sim.executed_events();
  const std::uint64_t moves_before = policy ? policy->movements_applied() : 0;
  std::optional<SpanLog> log;
  if (tracer) {
    if (!instruments) instruments = std::make_unique<Instruments>(network, policy);
    log.emplace(next_run_id());
  }
  {
    const ScopedSpan span(log ? &*log : nullptr, "sim.window");
    for (int step = 0; step < static_cast<int>(kWindowS); ++step) {
      sim.run(sim.now() + sim::Time::from_seconds(1.0));
      if (log) log->sample("sim.pending", static_cast<double>(sim.pending_events()));
    }
  }
  BatchResult out;
  out.sim_s = kWindowS;
  out.events = static_cast<double>(sim.executed_events() - events_before);
  out.runs = 1.0;
  out.attempted = 1;
  Digest d;
  hash_network(d, network);
  out.digest = d.value();
  if (log) {
    instruments->flush_to(*log);
    log->stat("sim.events").calls += sim.executed_events() - events_before;
    if (policy) {
      log->stat("core.movements").calls += policy->movements_applied() - moves_before;
    }
    count_medium(*log, minus(network.medium().counters(), before));
    sample_network_state(*log, network);
    tracer->merge(std::move(*log));
  }
  return out;
}

/// 1e5 nodes at the paper's density, HELLO beaconing plus one greedy flow,
/// no policy.
class BeaconScale final : public Workload {
 public:
  static constexpr std::size_t kNodes = 100000;

  explicit BeaconScale(const WorkloadConfig& config)
      : network_(std::make_unique<net::Network>(paper_network_config())) {
    const double side = 1000.0 * std::sqrt(static_cast<double>(kNodes) / 100.0);
    util::Rng rng(input_seed(config.variant, 0xbu));
    for (std::size_t i = 0; i < kNodes; ++i) {
      network_->add_node(geom::Vec2{rng.uniform(0.0, side), rng.uniform(0.0, side)},
                         util::Joules{2000.0});
    }
    network_->set_routing(std::make_unique<net::GreedyRouting>(network_->medium()));
    network_->warmup(util::Seconds{kNetworkWarmupS});
    const auto& grid = network_->medium().grid();
    const auto src = grid.nearest(geom::Vec2{0.05 * side, 0.05 * side}, side);
    const auto dst = grid.nearest(geom::Vec2{0.95 * side, 0.95 * side}, side);
    if (!src || !dst || src->id == dst->id) {
      throw std::runtime_error("beacon_scale: no corner-to-corner flow");
    }
    net::FlowSpec flow;
    flow.id = 1;
    flow.source = src->id;
    flow.destination = dst->id;
    flow.length_bits = util::Bits{1e12};  // never completes
    network_->start_flow(flow);
  }

  bool repeats() const override { return false; }
  std::size_t batches_per_part() const override { return 8; }  // ≈5 s on 4 cores
  BatchResult run_batch(Tracer* tracer) override {
    return advance_window(*network_, nullptr, tracer, instruments_);
  }

 private:
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<Instruments> instruments_;
};

/// 1e4 nodes, ~1000 unending greedy-routable kInformed flows at the paper's
/// rate and hello period.
class DataplaneFlows final : public Workload {
 public:
  static constexpr std::size_t kNodes = 10000;
  static constexpr std::size_t kFlows = 1000;
  static constexpr std::size_t kMinHops = 3;

  explicit DataplaneFlows(const WorkloadConfig& config)
      : mobility_(energy::MobilityParams{0.5, 1.0}) {
    net::NetworkConfig nc = paper_network_config();
    // InstanceRun's node settings for the paper defaults.
    nc.node.hello_interval = sim::Time::from_seconds(10.0);
    nc.node.neighbor_timeout = sim::Time::from_seconds(45.0);
    nc.node.charge_hello_energy = false;
    network_ = std::make_unique<net::Network>(nc);
    const double side = 1000.0 * std::sqrt(static_cast<double>(kNodes) / 100.0);
    util::Rng rng(input_seed(config.variant, 0xdu));
    for (std::size_t i = 0; i < kNodes; ++i) {
      network_->add_node(geom::Vec2{rng.uniform(0.0, side), rng.uniform(0.0, side)},
                         util::Joules{2000.0});
    }
    network_->set_routing(std::make_unique<net::GreedyRouting>(network_->medium()));
    policy_ = core::make_default_policy(network_->radio(), mobility_,
                                        core::MobilityMode::kInformed);
    network_->set_policy(policy_.get());
    network_->warmup(util::Seconds{kNetworkWarmupS});

    std::vector<bool> is_source(kNodes, false);
    std::size_t started = 0;
    for (std::size_t attempt = 0; started < kFlows; ++attempt) {
      if (attempt > 100 * kFlows) {
        throw std::runtime_error("dataplane_flows: too few routable pairs");
      }
      const auto src = static_cast<net::NodeId>(rng.uniform_int(0, kNodes - 1));
      const auto dst = static_cast<net::NodeId>(rng.uniform_int(0, kNodes - 1));
      if (src == dst || is_source[src]) continue;
      if (net::greedy_path_oracle(network_->medium(), src, dst).size() <
          kMinHops + 1) {
        continue;
      }
      is_source[src] = true;
      net::FlowSpec flow;
      flow.id = static_cast<net::FlowId>(++started);
      flow.source = src;
      flow.destination = dst;
      flow.length_bits = util::Bits{1e12};  // never completes
      flow.strategy = net::StrategyId::kMinTotalEnergy;
      flow.initially_enabled = false;  // iMobif starts disabled
      network_->start_flow(flow);
    }
  }

  bool repeats() const override { return false; }
  std::size_t batches_per_part() const override { return 16; }  // ≈5 s on 4 cores
  BatchResult run_batch(Tracer* tracer) override {
    return advance_window(*network_, policy_.get(), tracer, instruments_);
  }

 private:
  energy::MobilityEnergyModel mobility_;  // the policy keeps a reference
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<core::ImobifPolicy> policy_;
  std::unique_ptr<Instruments> instruments_;
};

// ------------------------------------------------------------ checkpoint --

/// fig6(c) instances, one mode each (cycling), with the flow length pinned
/// at the panel mean so every batch does the same work. At every chunk
/// boundary the run is encoded, hashed and restored, and continues on the
/// restored copy.
class CheckpointRoundtrip final : public Workload {
 public:
  static constexpr std::size_t kInstances = 6;

  explicit CheckpointRoundtrip(const WorkloadConfig& config)
      : params_(bench::paper_defaults()), roundtrip_(!config.uninterrupted) {
    params_.mean_flow_bits = util::Bits{bench::kMB};
    params_.seed = input_seed(config.variant, 0xcu);
    params_.validate();
    util::Rng root(params_.seed);
    for (std::size_t i = 0; i < kInstances; ++i) {
      util::Rng rng = root.fork();
      exp::FlowInstance instance = exp::sample_instance(params_, rng);
      instance.flow_bits = util::Bits{bench::kMB};
      instances_.push_back(std::move(instance));
    }
    // Warm caches and lazy state: build each run and round-trip it once.
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      auto run = exp::InstanceRun::create(instances_[i], params_, kModes[i % kModes.size()]);
      snap::restore(snap::encode(*run));
    }
  }

  bool repeats() const override { return true; }
  std::size_t batches_per_part() const override { return 0; }

  BatchResult run_batch(Tracer* tracer) override {
    BatchResult out;
    Digest d;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      std::optional<SpanLog> log;
      if (tracer) log.emplace(next_run_id());
      SpanLog* lp = log ? &*log : nullptr;
      try {
        const exp::RunResult r = run_one(instances_[i], kModes[i % kModes.size()], lp, out);
        hash_result(d, r);
        ++out.attempted;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "checkpoint_roundtrip: instance %zu failed: %s\n", i, e.what());
        ++out.attempted;
        ++out.failed;
      }
      if (log) tracer->merge(std::move(*log));
    }
    out.digest = d.value();
    return out;
  }

 private:
  exp::RunResult run_one(const exp::FlowInstance& instance, core::MobilityMode mode,
                         SpanLog* log, BatchResult& out) {
    std::unique_ptr<exp::InstanceRun> run;
    {
      const ScopedSpan span(log, "exp.create");
      run = exp::InstanceRun::create(instance, params_, mode);
    }
    std::unique_ptr<Instruments> instruments;
    if (log) instruments = std::make_unique<Instruments>(run->network(), &run->policy());
    for (;;) {
      if (roundtrip_) {
        // The run is between chunks here: the one point a snapshot may be
        // taken.
        std::string bytes;
        {
          const ScopedSpan span(log, "snap.encode");
          bytes = snap::encode(*run);
        }
        std::uint64_t before = 0;
        {
          const ScopedSpan span(log, "snap.state_hash");
          before = snap::state_hash(*run);
        }
        std::unique_ptr<exp::InstanceRun> restored;
        {
          const ScopedSpan span(log, "snap.restore");
          restored = snap::restore(bytes);
        }
        std::uint64_t after = 0;
        {
          const ScopedSpan span(log, "snap.state_hash");
          after = snap::state_hash(*restored);
        }
        ++out.attempted;
        if (before != after) ++out.failed;
        // The wrappers read the routing the old network owns: flush them
        // before the original run goes.
        if (log) {
          log->sample("snap.encode.bytes", static_cast<double>(bytes.size()));
          instruments->flush_to(*log);
        }
        run = std::move(restored);
        if (log) instruments = std::make_unique<Instruments>(run->network(), &run->policy());
      }
      bool done = false;
      {
        const ScopedSpan span(log, "exp.advance");
        if (roundtrip_) {
          // Exactly one chunk: single-event steps until the run is between
          // chunks again.
          done = run->advance(1);
          while (!done && run->in_chunk()) done = run->advance(1);
        } else {
          done = run->advance();
        }
      }
      if (done) break;
      if (log) {
        log->sample("sim.pending",
                    static_cast<double>(run->network().simulator().pending_events()));
      }
    }
    exp::RunResult result;
    {
      const ScopedSpan span(log, "exp.result");
      result = run->result();
    }
    sim::Simulator& sim = run->network().simulator();
    out.sim_s += sim.now().seconds();
    out.events += static_cast<double>(sim.executed_events());
    out.runs += 1.0;
    if (log) {
      instruments->flush_to(*log);
      log->stat("sim.events").calls += sim.executed_events();
      log->stat("core.movements").calls += result.movements;
      count_medium(*log, result.medium);
      sample_network_state(*log, run->network());
    }
    return result;
  }

  exp::ScenarioParams params_;
  bool roundtrip_;
  std::vector<exp::FlowInstance> instances_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_suite", "beacon_scale", "dataplane_flows", "checkpoint_roundtrip"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config) {
  if (name == "paper_suite") return std::make_unique<PaperSuite>(config);
  if (name == "beacon_scale") return std::make_unique<BeaconScale>(config);
  if (name == "dataplane_flows") return std::make_unique<DataplaneFlows>(config);
  if (name == "checkpoint_roundtrip") {
    return std::make_unique<CheckpointRoundtrip>(config);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
