#include "core/imobif_policy.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace imobif::core {
namespace {

using test::default_flow;
using test::line_positions;
using test::make_harness;

test::Harness run_flow(MobilityMode mode, double length_bits,
                       net::StrategyId strategy =
                           net::StrategyId::kMinTotalEnergy,
                       std::vector<geom::Vec2> positions = {}) {
  if (positions.empty()) {
    // A bent path (all hops within the 180 m range): relays off the
    // source-destination line, so the min-energy strategy has something
    // to gain.
    positions = {{0, 0}, {130, 50}, {260, -50}, {390, 0}};
  }
  test::HarnessOptions opts;
  opts.mode = mode;
  auto h = make_harness(positions, opts);
  h.net().warmup(util::Seconds{25.0});
  net::FlowSpec spec = default_flow(h.net(), length_bits, strategy);
  spec.initially_enabled = (mode == MobilityMode::kCostUnaware);
  h.net().start_flow(spec);
  h.net().run_flows(
      util::Seconds{length_bits / spec.rate_bps.value() * 4.0 + 120.0});
  return h;
}

TEST(PolicyModes, ToStringRoundTrip) {
  EXPECT_STREQ(to_string(MobilityMode::kNoMobility), "no-mobility");
  EXPECT_STREQ(to_string(MobilityMode::kCostUnaware), "cost-unaware");
  EXPECT_STREQ(to_string(MobilityMode::kInformed), "informed");
  EXPECT_STREQ(to_string(BenefitEstimator::kPaperLocal), "paper-local");
  EXPECT_STREQ(to_string(BenefitEstimator::kHopReceiver), "hop-receiver");
}

TEST(ImobifPolicy, RejectsNullStrategy) {
  auto h = make_harness({{0, 0}, {100, 0}});
  EXPECT_THROW(h.policy->register_strategy(nullptr), std::invalid_argument);
}

TEST(ImobifPolicy, DefaultPolicyHasBothStrategies) {
  auto h = make_harness({{0, 0}, {100, 0}});
  EXPECT_NE(h.policy->strategy(net::StrategyId::kMinTotalEnergy), nullptr);
  EXPECT_NE(h.policy->strategy(net::StrategyId::kMaxLifetime), nullptr);
  EXPECT_EQ(h.policy->strategy(net::StrategyId::kNone), nullptr);
}

TEST(ImobifPolicy, AlphaPrimeDefaultsToRadioAlpha) {
  auto h = make_harness({{0, 0}, {100, 0}});
  const auto* strat = dynamic_cast<const MaxLifetimeStrategy*>(
      h.policy->strategy(net::StrategyId::kMaxLifetime));
  ASSERT_NE(strat, nullptr);
  EXPECT_DOUBLE_EQ(strat->alpha_prime(), 2.0);
}

TEST(PolicyModes, NoMobilityNeverMoves) {
  auto h = run_flow(MobilityMode::kNoMobility, 8192.0 * 200);
  EXPECT_EQ(h.policy->movements_applied(), 0u);
  EXPECT_DOUBLE_EQ(h.net().total_movement_energy().value(), 0.0);
  EXPECT_TRUE(h.net().progress(1).completed);
}

TEST(PolicyModes, CostUnawareAlwaysMoves) {
  auto h = run_flow(MobilityMode::kCostUnaware, 8192.0 * 200);
  EXPECT_GT(h.policy->movements_applied(), 0u);
  EXPECT_GT(h.net().total_movement_energy(), util::Joules{0.0});
  // No cost/benefit evaluation: the destination never sends notifications.
  EXPECT_EQ(h.net().progress(1).notifications_from_dest, 0u);
}

TEST(PolicyModes, CostUnawareMovesEvenForTinyFlows) {
  auto h = run_flow(MobilityMode::kCostUnaware, 8192.0 * 4);
  EXPECT_GT(h.policy->movements_applied(), 0u);
}

TEST(PolicyModes, InformedStaysPutForTinyFlows) {
  // For a 4-packet flow the movement cost dwarfs any transmission saving;
  // the informed framework must keep mobility disabled.
  auto h = run_flow(MobilityMode::kInformed, 8192.0 * 4);
  EXPECT_EQ(h.policy->movements_applied(), 0u);
  EXPECT_TRUE(h.net().progress(1).completed);
}

TEST(PolicyModes, InformedEnablesForLongFlowsOnBentPath) {
  // A long flow across visibly bent relays: straightening pays, and the
  // destination must have told the source to enable mobility.
  auto h = run_flow(MobilityMode::kInformed, 8192.0 * 4000);
  EXPECT_GT(h.policy->movements_applied(), 0u);
  EXPECT_GE(h.net().progress(1).notifications_at_source, 1u);
}

TEST(PolicyModes, InformedNeverWorseThanBaselineOnShortFlows) {
  auto base = run_flow(MobilityMode::kNoMobility, 8192.0 * 4);
  auto inf = run_flow(MobilityMode::kInformed, 8192.0 * 4);
  EXPECT_NEAR(inf.net().total_consumed_energy().value(),
              base.net().total_consumed_energy().value(),
              base.net().total_consumed_energy().value() * 0.01);
}

TEST(PolicyModes, InformedBeatsBaselineOnLongBentFlows) {
  auto base = run_flow(MobilityMode::kNoMobility, 8192.0 * 4000);
  auto inf = run_flow(MobilityMode::kInformed, 8192.0 * 4000);
  EXPECT_LT(inf.net().total_consumed_energy(),
            base.net().total_consumed_energy());
}

TEST(PolicyModes, RelaysAdoptCarriedStatus) {
  auto h = run_flow(MobilityMode::kCostUnaware, 8192.0 * 20);
  const net::FlowEntry* relay = h.net().node(1).flows().find(1);
  ASSERT_NE(relay, nullptr);
  EXPECT_TRUE(relay->mobility_enabled);

  auto h2 = run_flow(MobilityMode::kNoMobility, 8192.0 * 20);
  const net::FlowEntry* relay2 = h2.net().node(1).flows().find(1);
  ASSERT_NE(relay2, nullptr);
  EXPECT_FALSE(relay2->mobility_enabled);
}

TEST(PolicyModes, MovementDistanceTracked) {
  auto h = run_flow(MobilityMode::kCostUnaware, 8192.0 * 100);
  EXPECT_GT(h.policy->total_distance_moved(), util::Meters{0.0});
  double node_sum = 0.0;
  for (std::size_t i = 0; i < h.net().node_count(); ++i) {
    node_sum +=
        h.net().node(static_cast<net::NodeId>(i)).total_moved().value();
  }
  EXPECT_NEAR(h.policy->total_distance_moved().value(), node_sum, 1e-9);
}

TEST(PolicyModes, PaperLocalEstimatorStillRuns) {
  std::vector<geom::Vec2> positions{{0, 0}, {130, 50}, {260, -50}, {390, 0}};
  test::HarnessOptions opts;
  opts.mode = MobilityMode::kInformed;
  auto h = make_harness(positions, opts);
  h.policy->set_estimator(BenefitEstimator::kPaperLocal);
  h.net().warmup(util::Seconds{25.0});
  h.net().start_flow(default_flow(h.net(), 8192.0 * 50));
  h.net().run_flows(util::Seconds{400.0});
  EXPECT_TRUE(h.net().progress(1).completed);
}

TEST(PolicyModes, EvaluateAtDestinationDecisions) {
  auto h = make_harness({{0, 0}, {100, 0}});
  net::FlowEntry entry;
  entry.prev = 0;
  net::DataBody data;
  data.strategy = net::StrategyId::kMinTotalEnergy;
  data.sender_has_plan = true;
  data.sender_target = h.net().node(0).position();
  data.sender_move_cost = util::Joules{0.0};
  data.residual_flow_bits = util::Bits{1000.0};

  // Force the aggregate so the final-hop fold cannot flip the comparison:
  // mobility hugely better -> enable request when disabled.
  h.policy->strategy(net::StrategyId::kMinTotalEnergy);
  data.agg = {util::Bits{1e12}, util::Joules{1e12}, util::Bits{1.0},
              util::Joules{1.0}};
  data.mobility_enabled = false;
  auto decision =
      h.policy->evaluate_at_destination(h.net().node(1), data, entry);
  ASSERT_TRUE(decision.has_value());
  EXPECT_TRUE(*decision);

  // Already enabled: no change requested.
  data.mobility_enabled = true;
  EXPECT_FALSE(h.policy->evaluate_at_destination(h.net().node(1), data, entry)
                   .has_value());

  // Mobility hugely worse -> disable request when enabled.
  data.agg = {util::Bits{1.0}, util::Joules{1.0}, util::Bits{1e12},
              util::Joules{1e12}};
  decision = h.policy->evaluate_at_destination(h.net().node(1), data, entry);
  ASSERT_TRUE(decision.has_value());
  EXPECT_FALSE(*decision);
}

TEST(PolicyModes, NonInformedNeverNotifies) {
  auto h = make_harness({{0, 0}, {100, 0}},
                        {.mode = MobilityMode::kCostUnaware});
  net::FlowEntry entry;
  entry.prev = 0;
  net::DataBody data;
  data.strategy = net::StrategyId::kMinTotalEnergy;
  data.agg = {util::Bits{1e12}, util::Joules{1e12}, util::Bits{1.0},
              util::Joules{1.0}};
  EXPECT_FALSE(h.policy->evaluate_at_destination(h.net().node(1), data, entry)
                   .has_value());
}

TEST(ImobifPolicy, BlendedRelayServesBothBranches) {
  // A fan: source 0 reaches destinations 3 (up) and 5 (down) through the
  // shared relays 1 and 2. With blending on, relay 2's movement target is
  // a compromise between the two branches; both flows still complete.
  //
  //                   /-- 3
  //        0 -- 1 -- 2 -- 4
  //                   \-- 5
  test::HarnessOptions opts;
  opts.mode = MobilityMode::kCostUnaware;
  opts.k = 0.0;
  auto h = make_harness(
      {{0, 0}, {150, 0}, {300, 0}, {450, 80}, {450, 0}, {450, -80}}, opts);
  h.policy->set_multi_flow_blending(true);
  h.net().warmup(util::Seconds{25.0});
  const std::vector<net::NodeId> destinations = {3, 5};
  for (std::size_t i = 0; i < destinations.size(); ++i) {
    net::FlowSpec spec;
    spec.id = static_cast<net::FlowId>(10 + i);
    spec.source = 0;
    spec.destination = destinations[i];
    spec.length_bits = util::Bits{8192.0 * 500};
    spec.strategy = net::StrategyId::kMinTotalEnergy;
    spec.initially_enabled = true;
    h.net().start_flow(spec);
  }
  h.net().run_flows(util::Seconds{2500.0});
  EXPECT_TRUE(h.net().progress(10).completed);
  EXPECT_TRUE(h.net().progress(11).completed);
  // Relay 2 feeds both branches symmetrically: blending keeps it near
  // y = 0 instead of oscillating toward either branch.
  EXPECT_NEAR(h.net().node(2).position().y, 0.0, 15.0);
  // Without blending the relay chases each packet's own flow target and
  // swings a full step per packet (1000 m over the 1000 packets); with
  // it, the relay moves 171 m in all.
  EXPECT_LT(h.net().node(2).total_moved(), util::Meters{500.0});
}

}  // namespace
}  // namespace imobif::core
