// Seed-parameterized end-to-end safety properties — the core guarantees
// the paper claims for the framework, checked across random topologies:
//
//   1. iMobif never consumes materially more energy than the static
//      baseline (only notification packets can add a sliver);
//   2. the same holds under the literal Figure-1 estimator;
//   3. lifetime runs: the informed max-lifetime strategy never materially
//      shortens the system lifetime;
//   4. replays are bit-deterministic.
#include <gtest/gtest.h>

#include "runtime/sweep.hpp"

namespace imobif::exp {
namespace {

ScenarioParams scenario(std::uint64_t seed) {
  ScenarioParams p;
  p.node_count = 60;
  p.area_m = util::Meters{800.0};
  p.mean_flow_bits = util::Bits{512.0 * 1024.0 * 8.0};
  p.mobility.k = 0.3;
  p.seed = seed;
  return p;
}

class SafetyAcrossSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SafetyAcrossSeeds, InformedEnergyNeverMateriallyWorse) {
  const auto points = runtime::run_comparison_parallel(scenario(GetParam()), 3);
  for (const auto& pt : points) {
    ASSERT_TRUE(pt.baseline.completed);
    ASSERT_TRUE(pt.informed.completed);
    EXPECT_LE(pt.energy_ratio_informed(), 1.02)
        << "flow of " << pt.flow_bits.value() / 8192.0 << " KB";
  }
}

TEST_P(SafetyAcrossSeeds, PaperLocalEstimatorAlsoSafe) {
  ScenarioParams p = scenario(GetParam());
  p.paper_local_estimator = true;
  const auto points = runtime::run_comparison_parallel(p, 3);
  for (const auto& pt : points) {
    EXPECT_LE(pt.energy_ratio_informed(), 1.02);
  }
}

TEST_P(SafetyAcrossSeeds, LifetimeMostlyPreservedOrImproved) {
  // The paper's Figure-8 claim is "longer system lifetime ... for *most*
  // flow instances" — a minority can end below baseline when a bottleneck
  // node pays for movement that a later re-evaluation cancels. Require the
  // majority of instances near-or-above baseline and a sane mean.
  ScenarioParams p = scenario(GetParam());
  p.strategy = net::StrategyId::kMaxLifetime;
  p.random_energy = true;
  p.energy_lo_j = util::Joules{5.0};
  p.energy_hi_j = util::Joules{100.0};
  p.mean_flow_bits = util::Bits{1024.0 * 1024.0 * 8.0};
  RunOptions opt;
  opt.stop_on_first_death = true;
  const auto points = runtime::run_comparison_parallel(p, 3, opt);
  int near_or_above = 0;
  double sum = 0.0;
  for (const auto& pt : points) {
    const double ratio = pt.lifetime_ratio_informed();
    EXPECT_GT(ratio, 0.3);  // never catastrophic
    sum += ratio;
    if (ratio >= 0.95) ++near_or_above;
  }
  EXPECT_GE(near_or_above, 2);  // most of the 3 instances
  EXPECT_GE(sum / 3.0, 0.85);
}

TEST_P(SafetyAcrossSeeds, DeterministicReplay) {
  const auto a = runtime::run_comparison_parallel(scenario(GetParam()), 2);
  const auto b = runtime::run_comparison_parallel(scenario(GetParam()), 2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].informed.total_energy_j.value(),
                     b[i].informed.total_energy_j.value());
    EXPECT_DOUBLE_EQ(a[i].cost_unaware.moved_distance_m.value(),
                     b[i].cost_unaware.moved_distance_m.value());
    EXPECT_EQ(a[i].informed.notifications, b[i].informed.notifications);
  }
}

TEST_P(SafetyAcrossSeeds, EnergyDecompositionConsistent) {
  const auto points = runtime::run_comparison_parallel(scenario(GetParam()), 2);
  for (const auto& pt : points) {
    for (const RunResult* run :
         {&pt.baseline, &pt.cost_unaware, &pt.informed}) {
      EXPECT_NEAR(run->total_energy_j.value(),
                  (run->transmit_energy_j + run->movement_energy_j).value(),
                  1e-6);
      EXPECT_GE(run->movement_energy_j, util::Joules{0.0});
      EXPECT_GT(run->transmit_energy_j, util::Joules{0.0});
    }
    EXPECT_DOUBLE_EQ(pt.baseline.movement_energy_j.value(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SafetyAcrossSeeds,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

}  // namespace
}  // namespace imobif::exp
