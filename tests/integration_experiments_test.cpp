// Experiment-harness integration: instance sampling, replay determinism,
// and the qualitative invariants behind the paper's figures.
#include <gtest/gtest.h>

#include "runtime/sweep.hpp"

namespace imobif::exp {
namespace {

ScenarioParams small_params() {
  ScenarioParams p;
  p.node_count = 60;
  p.area_m = util::Meters{800.0};
  p.mean_flow_bits = util::Bits{100.0 * 1024.0 * 8.0};
  p.seed = 5;
  return p;
}

TEST(SampleInstance, ProducesRoutableMultiHopPairs) {
  ScenarioParams p = small_params();
  util::Rng rng(p.seed);
  for (int i = 0; i < 10; ++i) {
    const FlowInstance inst = sample_instance(p, rng);
    EXPECT_EQ(inst.positions.size(), p.node_count);
    EXPECT_EQ(inst.energies.size(), p.node_count);
    EXPECT_NE(inst.source, inst.destination);
    ASSERT_GE(inst.initial_path.size(), p.min_hops + 1);
    EXPECT_EQ(inst.initial_path.front(), inst.source);
    EXPECT_EQ(inst.initial_path.back(), inst.destination);
    EXPECT_GE(inst.flow_bits, p.packet_bits);
    // Consecutive path nodes are within radio range.
    for (std::size_t j = 0; j + 1 < inst.initial_path.size(); ++j) {
      EXPECT_LE(geom::distance(inst.positions[inst.initial_path[j]],
                               inst.positions[inst.initial_path[j + 1]]),
                p.comm_range_m.value() + 1e-9);
    }
  }
}

TEST(SampleInstance, EnergiesMatchScenario) {
  ScenarioParams p = small_params();
  util::Rng rng(7);
  const FlowInstance fixed = sample_instance(p, rng);
  for (const util::Joules e : fixed.energies)
    EXPECT_DOUBLE_EQ(e.value(), p.initial_energy_j.value());

  p.random_energy = true;
  p.energy_lo_j = util::Joules{5.0};
  p.energy_hi_j = util::Joules{50.0};
  const FlowInstance random = sample_instance(p, rng);
  for (const util::Joules e : random.energies) {
    EXPECT_GE(e, util::Joules{5.0});
    EXPECT_LE(e, util::Joules{50.0});
  }
}

TEST(SampleInstance, DeterministicGivenRngState) {
  ScenarioParams p = small_params();
  util::Rng a(33), b(33);
  const FlowInstance ia = sample_instance(p, a);
  const FlowInstance ib = sample_instance(p, b);
  EXPECT_EQ(ia.source, ib.source);
  EXPECT_EQ(ia.destination, ib.destination);
  EXPECT_DOUBLE_EQ(ia.flow_bits.value(), ib.flow_bits.value());
  EXPECT_EQ(ia.initial_path, ib.initial_path);
}

TEST(SampleInstance, ThrowsWhenNoPathPossible) {
  ScenarioParams p = small_params();
  p.node_count = 3;
  p.area_m = util::Meters{10000.0};
  util::Rng rng(1);
  EXPECT_THROW(sample_instance(p, rng), std::runtime_error);
}

TEST(RunInstance, DeterministicReplay) {
  ScenarioParams p = small_params();
  util::Rng rng(11);
  const FlowInstance inst = sample_instance(p, rng);
  const RunResult a =
      run_instance(inst, p, core::MobilityMode::kInformed);
  const RunResult b =
      run_instance(inst, p, core::MobilityMode::kInformed);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.total_energy_j.value(), b.total_energy_j.value());
  EXPECT_DOUBLE_EQ(a.movement_energy_j.value(), b.movement_energy_j.value());
  EXPECT_EQ(a.notifications, b.notifications);
  EXPECT_EQ(a.path, b.path);
}

TEST(RunInstance, BaselineHasNoMovement) {
  ScenarioParams p = small_params();
  util::Rng rng(13);
  const FlowInstance inst = sample_instance(p, rng);
  const RunResult r =
      run_instance(inst, p, core::MobilityMode::kNoMobility);
  EXPECT_TRUE(r.completed);
  EXPECT_DOUBLE_EQ(r.movement_energy_j.value(), 0.0);
  EXPECT_EQ(r.movements, 0u);
  EXPECT_EQ(r.notifications, 0u);
  EXPECT_GT(r.transmit_energy_j, util::Joules{0.0});
}

TEST(RunInstance, PathTracedSourceToDestination) {
  ScenarioParams p = small_params();
  util::Rng rng(17);
  const FlowInstance inst = sample_instance(p, rng);
  const RunResult r =
      run_instance(inst, p, core::MobilityMode::kNoMobility);
  ASSERT_GE(r.path.size(), 2u);
  EXPECT_EQ(r.path.front(), inst.source);
  EXPECT_EQ(r.path.back(), inst.destination);
}

TEST(RunComparison, InformedNeverMateriallyWorse) {
  // The central claim of the paper: with cost/benefit checking, energy is
  // never materially above the no-mobility baseline (only notification
  // packets can add a sliver).
  ScenarioParams p = small_params();
  const auto points = runtime::run_comparison_parallel(p, 6);
  ASSERT_EQ(points.size(), 6u);
  for (const auto& pt : points) {
    EXPECT_TRUE(pt.baseline.completed);
    EXPECT_LE(pt.energy_ratio_informed(), 1.02);
    EXPECT_GT(pt.energy_ratio_cost_unaware(), 0.0);
  }
}

TEST(RunComparison, ShortFlowsMakeCostUnawareExpensive) {
  // Fig 6(a): for short flows the cost-unaware approach burns far more
  // energy than the static baseline on average.
  ScenarioParams p = small_params();
  p.mean_flow_bits = util::Bits{50.0 * 1024.0 * 8.0};
  const auto points = runtime::run_comparison_parallel(p, 6);
  double ratio_sum = 0.0;
  for (const auto& pt : points) ratio_sum += pt.energy_ratio_cost_unaware();
  EXPECT_GT(ratio_sum / 6.0, 1.5);
}

TEST(RunComparison, DeterministicAcrossCalls) {
  ScenarioParams p = small_params();
  const auto a = runtime::run_comparison_parallel(p, 3);
  const auto b = runtime::run_comparison_parallel(p, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(a[i].flow_bits.value(), b[i].flow_bits.value());
    EXPECT_DOUBLE_EQ(a[i].informed.total_energy_j.value(),
                     b[i].informed.total_energy_j.value());
    EXPECT_DOUBLE_EQ(a[i].cost_unaware.total_energy_j.value(),
                     b[i].cost_unaware.total_energy_j.value());
  }
}

TEST(RunComparison, LifetimeRunsRecordDeaths) {
  ScenarioParams p = small_params();
  p.strategy = net::StrategyId::kMaxLifetime;
  p.random_energy = true;
  p.energy_lo_j = util::Joules{2.0};
  p.energy_hi_j = util::Joules{20.0};
  p.mean_flow_bits = util::Bits{1024.0 * 1024.0 * 8.0};
  RunOptions opt;
  opt.stop_on_first_death = true;
  const auto points = runtime::run_comparison_parallel(p, 3, opt);
  int deaths = 0;
  for (const auto& pt : points) {
    if (pt.baseline.any_death) ++deaths;
    EXPECT_GT(pt.baseline.lifetime_s, util::Seconds{0.0});
    EXPECT_GT(pt.lifetime_ratio_informed(), 0.0);
  }
  EXPECT_GT(deaths, 0);  // low-energy nodes must actually die
}

TEST(RunPlacement, SnapshotsAreConsistent) {
  ScenarioParams p = small_params();
  p.mean_flow_bits = util::Bits{2.0 * 1024.0 * 1024.0 * 8.0};
  const PlacementSnapshot snap =
      run_placement(p, core::MobilityMode::kCostUnaware);
  ASSERT_GE(snap.path.size(), 4u);
  EXPECT_EQ(snap.initial_positions.size(), snap.path.size());
  EXPECT_EQ(snap.final_positions.size(), snap.path.size());
  EXPECT_EQ(snap.initial_energies.size(), snap.path.size());
  EXPECT_EQ(snap.final_energies.size(), snap.path.size());
  // Source and destination never move.
  EXPECT_EQ(snap.initial_positions.front(), snap.final_positions.front());
  EXPECT_EQ(snap.initial_positions.back(), snap.final_positions.back());
  // Relays did move (cost-unaware, long flow).
  double moved = 0.0;
  for (std::size_t i = 1; i + 1 < snap.path.size(); ++i) {
    moved += geom::distance(snap.initial_positions[i],
                            snap.final_positions[i]);
  }
  EXPECT_GT(moved, 1.0);
}

TEST(ScenarioParams, ValidationCatchesBadConfigs) {
  ScenarioParams p = small_params();
  p.node_count = 1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = small_params();
  p.rate_bps = util::BitsPerSecond{0.0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = small_params();
  p.random_energy = true;
  p.energy_hi_j = p.energy_lo_j - util::Joules{1.0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = small_params();
  p.length_estimate_factor = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace imobif::exp
