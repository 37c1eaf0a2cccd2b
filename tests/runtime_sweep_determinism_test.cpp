// run_comparison_parallel: results must be bit-identical regardless of
// worker count, and instance i must be the i-th fork of Rng(seed) replayed
// under each mode.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "exp/instance.hpp"
#include "runtime/report.hpp"
#include "runtime/sweep.hpp"
#include "util/rng.hpp"

namespace imobif::runtime {
namespace {

exp::ScenarioParams small_params() {
  exp::ScenarioParams p;
  p.node_count = 60;
  p.area_m = util::Meters{800.0};
  p.mean_flow_bits = util::Bits{60.0 * 1024.0 * 8.0};
  p.seed = 42;
  return p;
}

/// Paper-scale geometry with an armed fault injector and notification
/// retries — the lossy world must be exactly as deterministic as the
/// clean one. Long flows at this density make informed mode actually
/// send notifications, so the retry machinery is exercised too.
exp::ScenarioParams lossy_params() {
  exp::ScenarioParams p;  // paper defaults: 100 nodes / 1000 m
  p.mean_flow_bits = util::Bits{1024.0 * 1024.0 * 8.0};
  p.seed = 20050610;
  p.fault.loss_rate = 0.2;
  p.fault.seed = 777;
  p.notify_retry_cap = 5;
  return p;
}

/// Random-waypoint motion and on-off traffic, as in the mobility grid: the
/// mobility modes' runs take several times longer than the baseline's.
exp::ScenarioParams mobile_params() {
  exp::ScenarioParams p = small_params();
  p.seed = 7;
  p.mob.model = mob::ModelId::kRandomWaypoint;
  p.traffic.model = traffic::ModelId::kOnOff;
  return p;
}

void expect_same_run(const exp::RunResult& a, const exp::RunResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.delivered_bits, b.delivered_bits);
  EXPECT_EQ(a.completion_s, b.completion_s);
  EXPECT_EQ(a.transmit_energy_j, b.transmit_energy_j);
  EXPECT_EQ(a.movement_energy_j, b.movement_energy_j);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.notifications, b.notifications);
  EXPECT_EQ(a.notify_retries, b.notify_retries);
  EXPECT_EQ(a.notifications_applied, b.notifications_applied);
  EXPECT_EQ(a.medium.dropped_injected, b.medium.dropped_injected);
  EXPECT_EQ(a.medium.dropped_faulted, b.medium.dropped_faulted);
  EXPECT_EQ(a.movements, b.movements);
  EXPECT_EQ(a.moved_distance_m, b.moved_distance_m);
  EXPECT_EQ(a.lifetime_s, b.lifetime_s);
  EXPECT_EQ(a.path, b.path);
  ASSERT_EQ(a.final_energies.size(), b.final_energies.size());
  for (std::size_t i = 0; i < a.final_energies.size(); ++i) {
    EXPECT_EQ(a.final_energies[i], b.final_energies[i]);  // bitwise
  }
}

TEST(DeriveSeed, StatelessAndIndexSensitive) {
  EXPECT_EQ(derive_seed(123, 0), derive_seed(123, 0));
  EXPECT_NE(derive_seed(123, 0), derive_seed(123, 1));
  EXPECT_NE(derive_seed(123, 0), derive_seed(124, 0));
  // Adjacent (base, index) pairs that sum equally collide by construction
  // of splitmix64(base + index); callers use one base, so only index
  // variation matters.
  EXPECT_EQ(derive_seed(10, 5), derive_seed(11, 4));
}

TEST(RunComparisonParallel, JobCountsProduceIdenticalPoints) {
  const exp::ScenarioParams p = small_params();
  const std::size_t kInstances = 12;

  const auto one = run_comparison_parallel(p, kInstances, {}, 1);
  const auto eight = run_comparison_parallel(p, kInstances, {}, 8);
  ASSERT_EQ(one.size(), kInstances);
  ASSERT_EQ(eight.size(), kInstances);
  for (std::size_t i = 0; i < kInstances; ++i) {
    EXPECT_EQ(one[i].flow_bits, eight[i].flow_bits);
    EXPECT_EQ(one[i].hops, eight[i].hops);
    expect_same_run(one[i].baseline, eight[i].baseline);
    expect_same_run(one[i].cost_unaware, eight[i].cost_unaware);
    expect_same_run(one[i].informed, eight[i].informed);
  }
}

TEST(RunComparisonParallel, MatchesSequentialRunComparison) {
  const exp::ScenarioParams p = small_params();
  const std::size_t kInstances = 4;

  const auto parallel = run_comparison_parallel(p, kInstances, {}, 3);
  ASSERT_EQ(parallel.size(), kInstances);
  // Reference, one instance at a time on this thread: instance i is
  // sampled from the i-th fork of Rng(seed) and replayed under each mode.
  util::Rng root(p.seed);
  for (std::size_t i = 0; i < kInstances; ++i) {
    util::Rng rng = root.fork();
    const exp::FlowInstance instance = exp::sample_instance(p, rng);
    EXPECT_EQ(instance.flow_bits, parallel[i].flow_bits);
    EXPECT_EQ(instance.initial_path.size() - 1, parallel[i].hops);
    expect_same_run(
        exp::run_instance(instance, p, core::MobilityMode::kNoMobility),
        parallel[i].baseline);
    expect_same_run(
        exp::run_instance(instance, p, core::MobilityMode::kCostUnaware),
        parallel[i].cost_unaware);
    expect_same_run(
        exp::run_instance(instance, p, core::MobilityMode::kInformed),
        parallel[i].informed);
  }
}

TEST(RunComparisonParallel, ModesSplitAcrossWorkersMatchOneWorker) {
  // Each mode of an instance is its own pool task. Two and five workers
  // split an instance's three runs across threads, and 3n + 1 gives every
  // run a thread of its own with one to spare.
  const exp::ScenarioParams p = mobile_params();
  const std::size_t kInstances = 4;
  const auto one = run_comparison_parallel(p, kInstances, {}, 1);
  ASSERT_EQ(one.size(), kInstances);

  util::Rng root(p.seed);
  for (std::size_t i = 0; i < kInstances; ++i) {
    util::Rng rng = root.fork();
    const exp::FlowInstance instance = exp::sample_instance(p, rng);
    EXPECT_EQ(instance.flow_bits, one[i].flow_bits);
    EXPECT_EQ(instance.initial_path.size() - 1, one[i].hops);
    expect_same_run(
        exp::run_instance(instance, p, core::MobilityMode::kNoMobility),
        one[i].baseline);
    expect_same_run(
        exp::run_instance(instance, p, core::MobilityMode::kCostUnaware),
        one[i].cost_unaware);
    expect_same_run(
        exp::run_instance(instance, p, core::MobilityMode::kInformed),
        one[i].informed);
  }

  for (const std::size_t workers : {std::size_t{2}, std::size_t{5},
                                    3 * kInstances + 1}) {
    SCOPED_TRACE(workers);
    const auto split = run_comparison_parallel(p, kInstances, {}, workers);
    ASSERT_EQ(split.size(), kInstances);
    for (std::size_t i = 0; i < kInstances; ++i) {
      EXPECT_EQ(one[i].flow_bits, split[i].flow_bits);
      EXPECT_EQ(one[i].hops, split[i].hops);
      expect_same_run(one[i].baseline, split[i].baseline);
      expect_same_run(one[i].cost_unaware, split[i].cost_unaware);
      expect_same_run(one[i].informed, split[i].informed);
    }
  }
}

TEST(RunComparisonParallel, SamplingFailureThrowsAtAnyWorkerCount) {
  // Six nodes on 1500 m rarely route two hops: under seed 11 instances 0-3
  // sample and instance 4 finds no pair. The throw comes while the first
  // four instances' runs are queued or running; the sweep must wait for
  // them and rethrow the sampler's error, whatever the worker count.
  exp::ScenarioParams p;
  p.node_count = 6;
  p.area_m = util::Meters{1500.0};
  p.min_hops = 2;
  p.seed = 11;
  std::vector<std::string> errors;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    try {
      (void)run_comparison_parallel(p, 8, {}, workers);
      ADD_FAILURE() << "no throw at " << workers << " workers";
    } catch (const std::runtime_error& e) {
      errors.emplace_back(e.what());
    }
  }
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0], errors[1]);
  EXPECT_NE(errors[0].find("no routable"), std::string::npos) << errors[0];
  // The instances before the failing one do sample.
  EXPECT_EQ(run_comparison_parallel(p, 4, {}, 4).size(), 4u);
}

TEST(RunComparisonParallel, LossyJobCountsProduceIdenticalPoints) {
  // Fault injection must not reintroduce worker-count sensitivity: drop
  // decisions are stateless per-link hashes, so a lossy sweep is as
  // reproducible as a clean one.
  const exp::ScenarioParams p = lossy_params();
  const std::size_t kInstances = 6;

  const auto one = run_comparison_parallel(p, kInstances, {}, 1);
  const auto eight = run_comparison_parallel(p, kInstances, {}, 8);
  ASSERT_EQ(one.size(), kInstances);
  ASSERT_EQ(eight.size(), kInstances);
  bool any_injected = false, any_retry = false;
  for (std::size_t i = 0; i < kInstances; ++i) {
    EXPECT_EQ(one[i].flow_bits, eight[i].flow_bits);
    EXPECT_EQ(one[i].hops, eight[i].hops);
    expect_same_run(one[i].baseline, eight[i].baseline);
    expect_same_run(one[i].cost_unaware, eight[i].cost_unaware);
    expect_same_run(one[i].informed, eight[i].informed);
    any_injected |= one[i].informed.medium.dropped_injected > 0;
    any_retry |= one[i].informed.notify_retries > 0;
  }
  EXPECT_TRUE(any_injected);  // the faults really were exercised
  EXPECT_TRUE(any_retry);
}

TEST(SweepReport, LossyJsonPayloadIdenticalAcrossJobCounts) {
  // The full artifact path under loss — series AND drop counters — must
  // be byte-identical for --jobs 1 vs --jobs 8 (only wall_ms may differ,
  // and it is deliberately left unset here).
  const exp::ScenarioParams p = lossy_params();
  const auto build = [&p](std::size_t workers) {
    const auto points = run_comparison_parallel(p, 4, {}, workers);
    SweepReport report("lossy_determinism_check");
    std::vector<double> retries, delivered;
    std::uint64_t injected = 0;
    for (const auto& pt : points) {
      retries.push_back(static_cast<double>(pt.informed.notify_retries));
      delivered.push_back(pt.informed.delivered_bits.value());
      injected += pt.informed.medium.dropped_injected;
    }
    report.set_meta("seed", p.seed);
    report.add_series("notify_retries", retries);
    report.add_series("delivered_bits", delivered);
    report.set_counter("dropped_injected", injected);
    return report.to_string();
  };
  EXPECT_EQ(build(1), build(8));
}

TEST(SweepReport, JsonPayloadIdenticalAcrossJobCounts) {
  const exp::ScenarioParams p = small_params();
  const auto build = [&p](std::size_t workers) {
    const auto points = run_comparison_parallel(p, 6, {}, workers);
    SweepReport report("determinism_check");
    std::vector<double> informed, cost_unaware;
    for (const auto& pt : points) {
      informed.push_back(pt.energy_ratio_informed());
      cost_unaware.push_back(pt.energy_ratio_cost_unaware());
    }
    report.set_meta("seed", p.seed);
    report.add_series("ratio_informed", informed);
    report.add_series("ratio_cost_unaware", cost_unaware);
    // wall_ms deliberately unset: the payload must be byte-identical.
    return report.to_string();
  };
  EXPECT_EQ(build(1), build(8));
}

TEST(SweepReport, JsonShapeAndStats) {
  SweepReport report("shape");
  report.set_meta("k", 0.5);
  report.add_series("vals", {1.0, 2.0, 3.0});
  report.add_series("no_raw", {4.0, 6.0}, /*include_values=*/false);
  const util::Json json = report.to_json();

  ASSERT_NE(json.find("bench"), nullptr);
  EXPECT_EQ(json.find("bench")->dump(), "\"shape\"");
  EXPECT_EQ(json.find("wall_ms"), nullptr);  // unset -> omitted

  const util::Json* series = json.find("series");
  ASSERT_NE(series, nullptr);
  const util::Json* vals = series->find("vals");
  ASSERT_NE(vals, nullptr);
  EXPECT_EQ(vals->find("count")->dump(), "3");
  EXPECT_EQ(vals->find("mean")->dump(), "2");
  EXPECT_EQ(vals->find("min")->dump(), "1");
  EXPECT_EQ(vals->find("max")->dump(), "3");
  ASSERT_NE(vals->find("ci95"), nullptr);
  EXPECT_NE(vals->find("values"), nullptr);
  EXPECT_EQ(series->find("no_raw")->find("values"), nullptr);

  SweepReport timed("timed");
  timed.set_wall_ms(12.5);
  ASSERT_NE(timed.to_json().find("wall_ms"), nullptr);
  EXPECT_EQ(timed.to_json().find("wall_ms")->dump(), "12.5");
}

}  // namespace
}  // namespace imobif::runtime
