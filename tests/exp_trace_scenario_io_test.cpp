// TraceRecorder and scenario-config binding tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario_io.hpp"
#include "exp/trace.hpp"
#include "test_helpers.hpp"

namespace imobif::exp {
namespace {

using test::default_flow;
using test::line_positions;
using test::make_harness;
using util::Seconds;

TEST(TraceRecorder, CapturesDeliveries) {
  auto h = make_harness(line_positions(3, 300.0));
  TraceRecorder trace;
  h.net().set_event_tap(&trace);
  h.net().warmup(Seconds{25.0});
  h.net().start_flow(default_flow(h.net(), 8192.0 * 3));
  h.net().run_flows(Seconds{60.0});

  EXPECT_EQ(trace.count(TraceRecorder::Kind::kDelivered), 3u);
  ASSERT_FALSE(trace.entries().empty());
  const auto& first = trace.entries().front();
  EXPECT_EQ(first.kind, TraceRecorder::Kind::kDelivered);
  EXPECT_EQ(first.node, 2u);
  EXPECT_EQ(first.flow, 1u);
  EXPECT_NE(first.detail.find("seq=0"), std::string::npos);
  EXPECT_GT(first.time_s, 0.0);
}

TEST(TraceRecorder, CapturesNotifications) {
  // A long flow over a bent path in the informed mode produces at least
  // one enable notification (see core_policy_test).
  std::vector<geom::Vec2> bent{{0, 0}, {130, 50}, {260, -50}, {390, 0}};
  test::HarnessOptions opts;
  opts.mode = core::MobilityMode::kInformed;
  auto h = make_harness(bent, opts);
  TraceRecorder trace;
  h.net().set_event_tap(&trace);
  h.net().warmup(Seconds{25.0});
  h.net().start_flow(default_flow(h.net(), 8192.0 * 4000));
  h.net().run_flows(Seconds{8192.0 * 4000 / 8192.0 * 4.0});

  EXPECT_GE(trace.count(TraceRecorder::Kind::kNotificationInitiated), 1u);
  EXPECT_GE(trace.count(TraceRecorder::Kind::kNotificationAtSource), 1u);
}

TEST(TraceRecorder, CapturesDeaths) {
  test::HarnessOptions opts;
  opts.initial_energy_j = util::Joules{0.2};
  auto h = make_harness(line_positions(3, 300.0), opts);
  TraceRecorder trace;
  h.net().set_event_tap(&trace);
  h.net().warmup(Seconds{5.0});
  h.net().start_flow(default_flow(h.net(), 8192.0 * 1000));
  h.net().run_flows(Seconds{300.0}, Seconds{30.0});
  EXPECT_GE(trace.count(TraceRecorder::Kind::kNodeDepleted), 1u);
}

TEST(TraceRecorder, ClearEmpties) {
  TraceRecorder trace;
  auto h = make_harness(line_positions(3, 300.0));
  h.net().set_event_tap(&trace);
  h.net().warmup(Seconds{25.0});
  h.net().start_flow(default_flow(h.net(), 8192.0));
  h.net().run_flows(Seconds{30.0});
  EXPECT_FALSE(trace.entries().empty());
  trace.clear();
  EXPECT_TRUE(trace.entries().empty());
}

TEST(ScenarioIo, AppliesOverrides) {
  ScenarioParams p;
  const util::Config config = util::Config::from_string(
      "k = 0.1\n"
      "radio_alpha = 3\n"
      "radio_b = 3e-12\n"
      "mean_flow_kb = 1024\n"
      "strategy = max-lifetime\n"
      "random_energy = true\n"
      "notification_min_gap = 4\n"
      "exact_lifetime_split = yes\n"
      "seed = 77\n");
  apply_config(config, p);
  EXPECT_DOUBLE_EQ(p.mobility.k, 0.1);
  EXPECT_DOUBLE_EQ(p.radio.alpha, 3.0);
  EXPECT_DOUBLE_EQ(p.radio.b, 3e-12);
  EXPECT_DOUBLE_EQ(p.mean_flow_bits.value(), 1024.0 * 1024.0 * 8.0);
  EXPECT_EQ(p.strategy, net::StrategyId::kMaxLifetime);
  EXPECT_TRUE(p.random_energy);
  EXPECT_EQ(p.notification_min_gap, 4u);
  EXPECT_TRUE(p.exact_lifetime_split);
  EXPECT_EQ(p.seed, 77u);
}

TEST(ScenarioIo, AbsentKeysKeepDefaults) {
  ScenarioParams p;
  const ScenarioParams before = p;
  apply_config(util::Config::from_string(""), p);
  EXPECT_DOUBLE_EQ(p.mobility.k, before.mobility.k);
  EXPECT_EQ(p.node_count, before.node_count);
  EXPECT_EQ(p.strategy, before.strategy);
}

TEST(ScenarioIo, UnknownStrategyThrows) {
  ScenarioParams p;
  EXPECT_THROW(
      apply_config(util::Config::from_string("strategy = warp\n"), p),
      std::invalid_argument);
}

TEST(ScenarioIo, UnknownKeyThrowsNamingIt) {
  // A typo must not silently run the default scenario.
  ScenarioParams p;
  try {
    apply_config(util::Config::from_string("k = 0.1\nkk = 0.1\n"), p);
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("'kk'"), std::string::npos)
        << err.what();
  }
  // imobif_sim's own options are not scenario keys either.
  EXPECT_THROW(
      apply_config(util::Config::from_string("sweep = k=0.1,0.5\n"), p),
      std::invalid_argument);
}

TEST(ScenarioIo, ConfigStringRoundTrips) {
  ScenarioParams p;
  p.mobility.k = 0.1;
  p.strategy = net::StrategyId::kMaxLifetime;
  p.exact_lifetime_split = true;
  p.seed = 123;
  p.mean_flow_bits = util::Bits{512.0 * 1024.0 * 8.0};

  ScenarioParams q;  // defaults differ from p
  apply_config(util::Config::from_string(to_config_string(p)), q);
  EXPECT_DOUBLE_EQ(q.mobility.k, p.mobility.k);
  EXPECT_EQ(q.strategy, p.strategy);
  EXPECT_TRUE(q.exact_lifetime_split);
  EXPECT_EQ(q.seed, 123u);
  EXPECT_DOUBLE_EQ(q.mean_flow_bits.value(), p.mean_flow_bits.value());
  EXPECT_DOUBLE_EQ(q.radio.b, p.radio.b);
}

TEST(ScenarioIo, EveryOptionalKeyRoundTrips) {
  // Exercise every optional scenario key at once: the full fault plan
  // (independent loss, Gilbert–Elliott, a crash schedule), the
  // notification retry knobs, and multiflow blending — all with values
  // chosen to be awkward (non-defaults, fractional, shortest-round-trip
  // sensitive).
  ScenarioParams p;
  p.fault.loss_rate = 0.123456789;
  p.fault.gilbert_elliott = true;
  p.fault.p_good_to_bad = 0.07;
  p.fault.p_bad_to_good = 0.31;
  p.fault.loss_good = 0.015;
  p.fault.loss_bad = 0.775;
  p.fault.seed = 991;
  p.fault.crashes = {{3, 12.5, -1.0}, {7, 30.25, 5.125}, {11, 0.1, 0.0}};
  p.notify_retry_cap = 9;
  p.notify_retry_timeout_s = util::Seconds{1.75};
  p.multi_flow_blending = true;
  p.random_energy = true;
  p.energy_lo_j = util::Joules{123.25};
  p.energy_hi_j = util::Joules{456.75};
  p.position_error_m = util::Meters{2.5};

  ScenarioParams q;  // starts at defaults
  apply_config(util::Config::from_string(to_config_string(p)), q);

  EXPECT_DOUBLE_EQ(q.fault.loss_rate, p.fault.loss_rate);
  EXPECT_TRUE(q.fault.gilbert_elliott);
  EXPECT_DOUBLE_EQ(q.fault.p_good_to_bad, p.fault.p_good_to_bad);
  EXPECT_DOUBLE_EQ(q.fault.p_bad_to_good, p.fault.p_bad_to_good);
  EXPECT_DOUBLE_EQ(q.fault.loss_good, p.fault.loss_good);
  EXPECT_DOUBLE_EQ(q.fault.loss_bad, p.fault.loss_bad);
  EXPECT_EQ(q.fault.seed, 991u);
  ASSERT_EQ(q.fault.crashes.size(), p.fault.crashes.size());
  for (std::size_t i = 0; i < p.fault.crashes.size(); ++i) {
    EXPECT_EQ(q.fault.crashes[i].node, p.fault.crashes[i].node);
    EXPECT_EQ(q.fault.crashes[i].at_s, p.fault.crashes[i].at_s);
    EXPECT_EQ(q.fault.crashes[i].duration_s, p.fault.crashes[i].duration_s);
  }
  EXPECT_EQ(q.notify_retry_cap, 9u);
  EXPECT_DOUBLE_EQ(q.notify_retry_timeout_s.value(), 1.75);
  EXPECT_TRUE(q.multi_flow_blending);
  EXPECT_TRUE(q.random_energy);
  EXPECT_DOUBLE_EQ(q.energy_lo_j.value(), 123.25);
  EXPECT_DOUBLE_EQ(q.energy_hi_j.value(), 456.75);
  EXPECT_DOUBLE_EQ(q.position_error_m.value(), 2.5);

  // The decisive check (what snapshot embedding relies on): a second
  // generation of the config string is byte-identical to the first.
  EXPECT_EQ(to_config_string(q), to_config_string(p));
}

TEST(ScenarioIo, CrashListRoundTripsThroughFormatter) {
  const std::vector<net::FaultPlan::CrashEvent> crashes = {
      {1, 0.5, -1.0}, {2, 100.125, 30.0}};
  const std::vector<net::FaultPlan::CrashEvent> parsed =
      parse_crashes(format_crashes(crashes));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].node, 1u);
  EXPECT_EQ(parsed[0].at_s, 0.5);
  EXPECT_EQ(parsed[0].duration_s, -1.0);
  EXPECT_EQ(parsed[1].node, 2u);
  EXPECT_EQ(parsed[1].at_s, 100.125);
  EXPECT_EQ(parsed[1].duration_s, 30.0);
  EXPECT_THROW(parse_crashes("5:1.0"), std::invalid_argument);
  // The node id must fit a NodeId: no wrap, truncation or trailing junk.
  EXPECT_THROW(parse_crashes("4294967297:10:5"), std::invalid_argument);
  EXPECT_THROW(parse_crashes("-1:10:5"), std::invalid_argument);
  EXPECT_THROW(parse_crashes("3x:10:5"), std::invalid_argument);
  // Padding around an item is not part of the id.
  EXPECT_EQ(parse_crashes("1:0.5:-1, 3:10:5").at(1).node, 3u);
}

// Unsigned keys parse into their exact field type: a sign, trailing junk
// or a value the field cannot hold is an error naming the key, never a
// wrap (-1 -> 2^64 - 1) or a truncation (2^32 + 1 -> 1).
TEST(ScenarioIo, UnsignedKeysRejectSignsJunkAndOverflow) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"min_hops", "-1"},
      {"notify_retry_cap", "4294967297"},
      {"node_count", "-3"},
      {"notification_min_gap", "4x"},
      {"mobility.group_count", "+2"},
      {"fault_seed", "18446744073709551616"},
      {"seed", "12.9"},
      {"seed", ""},
  };
  for (const auto& [key, value] : bad) {
    SCOPED_TRACE(key + " = " + value);
    ScenarioParams p;
    try {
      apply_config(util::Config::from_string(key + " = " + value + "\n"), p);
      FAIL() << "accepted";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find("'" + key + "'"),
                std::string::npos)
          << err.what();
    }
  }
  // Each field's full range still parses.
  ScenarioParams p;
  apply_config(util::Config::from_string("notify_retry_cap = 4294967295\n"
                                         "seed = 18446744073709551615\n"),
               p);
  EXPECT_EQ(p.notify_retry_cap, 4294967295u);
  EXPECT_EQ(p.seed, std::numeric_limits<std::uint64_t>::max());
}

// Seeds at or above 2^63 are written by to_config_string and must read
// back: snapshots embed the scenario through this round trip.
TEST(ScenarioIo, FullRangeSeedsRoundTrip) {
  for (const std::uint64_t seed :
       {std::numeric_limits<std::uint64_t>::max(),
        (std::uint64_t{1} << 63) + 5}) {
    ScenarioParams p;
    p.seed = seed;
    p.fault.seed = seed;
    ScenarioParams q;
    apply_config(util::Config::from_string(to_config_string(p)), q);
    EXPECT_EQ(q.seed, seed);
    EXPECT_EQ(q.fault.seed, seed);
    EXPECT_EQ(to_config_string(q), to_config_string(p));
  }
}

// Known-answer texts: snapshot meta embeds to_config_string, so its exact
// bytes (key order, number formatting, which optional keys appear) are
// pinned here and not only its round trip.
TEST(ScenarioIo, ConfigStringKnownAnswers) {
  EXPECT_EQ(to_config_string(ScenarioParams{}),
      "area_m = 1000\n"
      "node_count = 100\n"
      "comm_range_m = 180\n"
      "min_hops = 3\n"
      "radio_a = 1e-07\n"
      "radio_b = 5e-10\n"
      "radio_alpha = 2\n"
      "radio_rx_per_bit = 0\n"
      "k = 0.5\n"
      "max_step_m = 1\n"
      "initial_energy_j = 2000\n"
      "random_energy = false\n"
      "energy_lo_j = 5\n"
      "energy_hi_j = 100\n"
      "mean_flow_kb = 100\n"
      "packet_bits = 8192\n"
      "rate_bps = 8192\n"
      "length_estimate_factor = 1\n"
      "hello_interval_s = 10\n"
      "warmup_s = 25\n"
      "charge_hello_energy = false\n"
      "position_error_m = 0\n"
      "strategy = min-energy\n"
      "alpha_prime = 0\n"
      "line_bias_weight = 0\n"
      "cap_bits = true\n"
      "paper_local_estimator = false\n"
      "exact_lifetime_split = false\n"
      "notification_min_gap = 0\n"
      "recruit_margin = 0\n"
      "multi_flow_blending = false\n"
      "loss_rate = 0\n"
      "gilbert_elliott = false\n"
      "p_good_to_bad = 0\n"
      "p_bad_to_good = 0.1\n"
      "loss_good = 0\n"
      "loss_bad = 1\n"
      "fault_seed = 0\n"
      "notify_retry_cap = 0\n"
      "notify_retry_timeout_s = 2\n"
      "seed = 1\n");

  ScenarioParams zoo;
  zoo.mob.model = mob::ModelId::kTrace;
  zoo.mob.trace_file = "walk.trace";
  zoo.mob.update_s = Seconds{0.5};
  zoo.mob.speed_max = util::MetersPerSecond{3.25};
  zoo.mob.group_count = 7;
  zoo.mob.charge_energy = true;
  zoo.traffic.model = traffic::ModelId::kPareto;
  zoo.traffic.pareto_shape = 1.2;
  zoo.fault.loss_rate = 0.1;
  zoo.fault.crashes = {{3, 12.5, -1.0}, {7, 30.25, 5.125}};
  zoo.fault.seed = (std::uint64_t{1} << 63) + 5;
  zoo.seed = std::numeric_limits<std::uint64_t>::max();
  zoo.strategy = net::StrategyId::kMaxLifetime;
  EXPECT_EQ(to_config_string(zoo),
      "area_m = 1000\n"
      "node_count = 100\n"
      "comm_range_m = 180\n"
      "min_hops = 3\n"
      "radio_a = 1e-07\n"
      "radio_b = 5e-10\n"
      "radio_alpha = 2\n"
      "radio_rx_per_bit = 0\n"
      "k = 0.5\n"
      "max_step_m = 1\n"
      "initial_energy_j = 2000\n"
      "random_energy = false\n"
      "energy_lo_j = 5\n"
      "energy_hi_j = 100\n"
      "mean_flow_kb = 100\n"
      "packet_bits = 8192\n"
      "rate_bps = 8192\n"
      "length_estimate_factor = 1\n"
      "hello_interval_s = 10\n"
      "warmup_s = 25\n"
      "charge_hello_energy = false\n"
      "position_error_m = 0\n"
      "strategy = max-lifetime\n"
      "alpha_prime = 0\n"
      "line_bias_weight = 0\n"
      "cap_bits = true\n"
      "paper_local_estimator = false\n"
      "exact_lifetime_split = false\n"
      "notification_min_gap = 0\n"
      "recruit_margin = 0\n"
      "multi_flow_blending = false\n"
      "loss_rate = 0.1\n"
      "gilbert_elliott = false\n"
      "p_good_to_bad = 0\n"
      "p_bad_to_good = 0.1\n"
      "loss_good = 0\n"
      "loss_bad = 1\n"
      "fault_seed = 9223372036854775813\n"
      "crashes = 3:12.5:-1,7:30.25:5.125\n"
      "notify_retry_cap = 0\n"
      "notify_retry_timeout_s = 2\n"
      "mobility.model = trace\n"
      "mobility.update_s = 0.5\n"
      "mobility.speed_min_mps = 0.5\n"
      "mobility.speed_max_mps = 3.25\n"
      "mobility.pause_s = 10\n"
      "mobility.gm_alpha = 0.75\n"
      "mobility.gm_speed_sigma_mps = 0.25\n"
      "mobility.gm_dir_sigma_rad = 0.5\n"
      "mobility.group_count = 7\n"
      "mobility.group_radius_m = 50\n"
      "mobility.trace_file = walk.trace\n"
      "mobility.charge_energy = true\n"
      "traffic.model = pareto\n"
      "traffic.on_mean_s = 5\n"
      "traffic.off_mean_s = 5\n"
      "traffic.pareto_shape = 1.2\n"
      "seed = 18446744073709551615\n");
}

// Only the trace model reads mobility.trace_file, so the other models'
// text (and with it every checkpoint unit name) must not carry a path a
// conf happens to set for its trace variant.
TEST(ScenarioIo, TraceFileWrittenOnlyUnderTraceModel) {
  constexpr const char* kLine = "mobility.trace_file = walk.trace\n";
  ScenarioParams p;
  p.mob.trace_file = "walk.trace";
  for (const mob::ModelId model :
       {mob::ModelId::kNone, mob::ModelId::kRandomWaypoint,
        mob::ModelId::kGaussMarkov, mob::ModelId::kGroup}) {
    p.mob.model = model;
    EXPECT_EQ(to_config_string(p).find(kLine), std::string::npos)
        << mob::to_string(model);
  }
  p.mob.model = mob::ModelId::kTrace;
  EXPECT_NE(to_config_string(p).find(kLine), std::string::npos);
}

}  // namespace
}  // namespace imobif::exp
