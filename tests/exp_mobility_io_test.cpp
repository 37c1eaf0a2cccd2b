// Scenario-config binding for the mobility & traffic model zoo
// (DESIGN.md §14): every new key round trips, and — the byte-identity
// contract — a default scenario emits no mobility/traffic keys at all, so
// legacy configs, snapshot meta (and so resumable checkpoints) and
// committed figures keep their exact bytes.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "exp/scenario_io.hpp"
#include "mob/params.hpp"
#include "traffic/params.hpp"

namespace imobif::exp {
namespace {

using util::Seconds;

TEST(MobilityIo, DefaultDumpCarriesNoZooKeys) {
  const std::string text = to_config_string(ScenarioParams{});
  EXPECT_EQ(text.find("mobility.model"), std::string::npos);
  EXPECT_EQ(text.find("traffic."), std::string::npos);
  // "mobility." must not appear either (k/max_step_m are bare keys).
  EXPECT_EQ(text.find("mobility."), std::string::npos);
}

TEST(MobilityIo, LegacyConfigTextParsesIdentically) {
  // The seed repo's scenario grammar: a config written before the model
  // zoo existed must produce the same params — and re-emit the same
  // bytes — as it always did.
  ScenarioParams p;
  p.seed = 4242;
  p.mobility.k = 0.25;
  const std::string legacy = to_config_string(p);

  ScenarioParams q;
  apply_config(util::Config::from_string(legacy), q);
  EXPECT_FALSE(q.mob.enabled());
  EXPECT_FALSE(q.traffic.enabled());
  EXPECT_EQ(to_config_string(q), legacy);
}

TEST(MobilityIo, EveryMobilityKeyRoundTrips) {
  ScenarioParams p;
  p.mob.model = mob::ModelId::kGaussMarkov;
  p.mob.update_s = Seconds{0.25};
  p.mob.speed_min = util::MetersPerSecond{0.125};
  p.mob.speed_max = util::MetersPerSecond{3.75};
  p.mob.pause_s = Seconds{7.5};
  p.mob.gm_alpha = 0.875;
  p.mob.gm_speed_sigma = util::MetersPerSecond{0.0625};
  p.mob.gm_dir_sigma_rad = 0.375;
  p.mob.group_count = 7;
  p.mob.group_radius_m = util::Meters{33.5};
  p.mob.charge_energy = true;

  ScenarioParams q;  // starts at defaults
  apply_config(util::Config::from_string(to_config_string(p)), q);

  EXPECT_EQ(q.mob.model, mob::ModelId::kGaussMarkov);
  EXPECT_DOUBLE_EQ(q.mob.update_s.value(), 0.25);
  EXPECT_DOUBLE_EQ(q.mob.speed_min.value(), 0.125);
  EXPECT_DOUBLE_EQ(q.mob.speed_max.value(), 3.75);
  EXPECT_DOUBLE_EQ(q.mob.pause_s.value(), 7.5);
  EXPECT_DOUBLE_EQ(q.mob.gm_alpha, 0.875);
  EXPECT_DOUBLE_EQ(q.mob.gm_speed_sigma.value(), 0.0625);
  EXPECT_DOUBLE_EQ(q.mob.gm_dir_sigma_rad, 0.375);
  EXPECT_EQ(q.mob.group_count, 7u);
  EXPECT_DOUBLE_EQ(q.mob.group_radius_m.value(), 33.5);
  EXPECT_TRUE(q.mob.charge_energy);

  // Snapshot embedding relies on generation stability: a second dump is
  // byte-identical to the first.
  EXPECT_EQ(to_config_string(q), to_config_string(p));
}

TEST(MobilityIo, TraceFileRoundTrips) {
  ScenarioParams p;
  p.mob.model = mob::ModelId::kTrace;
  p.mob.trace_file = "/tmp/imobif_io_test.trace";

  ScenarioParams q;
  apply_config(util::Config::from_string(to_config_string(p)), q);
  EXPECT_EQ(q.mob.model, mob::ModelId::kTrace);
  EXPECT_EQ(q.mob.trace_file, p.mob.trace_file);
  EXPECT_EQ(to_config_string(q), to_config_string(p));
}

TEST(MobilityIo, EveryTrafficKeyRoundTrips) {
  ScenarioParams p;
  p.traffic.model = traffic::ModelId::kPareto;
  p.traffic.on_mean_s = Seconds{2.5};
  p.traffic.off_mean_s = Seconds{12.25};
  p.traffic.pareto_shape = 1.625;

  ScenarioParams q;
  apply_config(util::Config::from_string(to_config_string(p)), q);
  EXPECT_EQ(q.traffic.model, traffic::ModelId::kPareto);
  EXPECT_DOUBLE_EQ(q.traffic.on_mean_s.value(), 2.5);
  EXPECT_DOUBLE_EQ(q.traffic.off_mean_s.value(), 12.25);
  EXPECT_DOUBLE_EQ(q.traffic.pareto_shape, 1.625);
  EXPECT_EQ(to_config_string(q), to_config_string(p));
}

TEST(MobilityIo, ModelNamesBindThroughConfig) {
  ScenarioParams p;
  apply_config(util::Config::from_string("mobility.model = rwp\n"
                                         "traffic.model = on-off\n"),
               p);
  EXPECT_EQ(p.mob.model, mob::ModelId::kRandomWaypoint);
  EXPECT_EQ(p.traffic.model, traffic::ModelId::kOnOff);

  ScenarioParams q;
  EXPECT_THROW(
      apply_config(util::Config::from_string("mobility.model = warp\n"), q),
      std::invalid_argument);
  EXPECT_THROW(
      apply_config(util::Config::from_string("traffic.model = hose\n"), q),
      std::invalid_argument);
}

TEST(MobilityIo, AbsentZooKeysKeepDefaults) {
  ScenarioParams p;
  apply_config(util::Config::from_string("seed = 9\n"), p);
  EXPECT_EQ(p.mob.model, mob::ModelId::kNone);
  EXPECT_EQ(p.traffic.model, traffic::ModelId::kCbr);
  EXPECT_TRUE(p.mob.trace_file.empty());
}

}  // namespace
}  // namespace imobif::exp
