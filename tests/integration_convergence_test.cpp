// End-to-end convergence properties of the two mobility strategies — the
// behaviours Figure 5 of the paper visualizes.
#include <gtest/gtest.h>

#include <cmath>

#include "geom/segment.hpp"
#include "test_helpers.hpp"

namespace imobif::core {
namespace {

using test::default_flow;
using test::make_harness;
using util::Joules;
using util::Seconds;

// A visibly crooked 6-node path; hops stay within the 180 m radio range.
std::vector<geom::Vec2> crooked_path() {
  return {{0, 0},    {130, 70},  {260, -40},
          {390, 60}, {520, -50}, {650, 0}};
}

std::vector<net::NodeId> relays(const test::Harness& h) {
  std::vector<net::NodeId> out;
  for (net::NodeId id = 1; id + 1 < h.network->node_count(); ++id) {
    out.push_back(id);
  }
  return out;
}

TEST(MinEnergyConvergence, RelaysConvergeToSourceDestLine) {
  test::HarnessOptions opts;
  opts.mode = MobilityMode::kCostUnaware;  // unconditional movement
  auto h = make_harness(crooked_path(), opts);
  h.net().warmup(Seconds{25.0});

  const geom::Segment line{h.net().node(0).position(),
                           h.net().node(5).position()};
  double initial_offline = 0.0;
  for (const auto id : relays(h)) {
    initial_offline =
        std::max(initial_offline, line.distance_to(h.net().node(id).position()));
  }
  ASSERT_GT(initial_offline, 30.0);  // the path really is crooked

  net::FlowSpec spec = default_flow(h.net(), 8192.0 * 2000);
  spec.initially_enabled = true;
  h.net().start_flow(spec);
  h.net().run_flows(Seconds{3000.0});

  for (const auto id : relays(h)) {
    EXPECT_LT(line.distance_to(h.net().node(id).position()), 2.0)
        << "relay " << id << " did not reach the line";
  }
}

TEST(MinEnergyConvergence, RelaysEndEvenlySpaced) {
  test::HarnessOptions opts;
  opts.mode = MobilityMode::kCostUnaware;
  auto h = make_harness(crooked_path(), opts);
  h.net().warmup(Seconds{25.0});
  net::FlowSpec spec = default_flow(h.net(), 8192.0 * 3000);
  spec.initially_enabled = true;
  h.net().start_flow(spec);
  h.net().run_flows(Seconds{4000.0});

  // Hop lengths along the chain should be within a few meters of D/5.
  const double total =
      geom::distance(h.net().node(0).position(), h.net().node(5).position());
  for (net::NodeId id = 0; id + 1 < 6; ++id) {
    const double hop = geom::distance(h.net().node(id).position(),
                                      h.net().node(id + 1).position());
    EXPECT_NEAR(hop, total / 5.0, total * 0.05)
        << "hop " << id << " -> " << id + 1;
  }
}

TEST(MinEnergyConvergence, SteadyStateReducesPerPacketCost) {
  // After convergence the network must spend less transmit energy per
  // packet than it did on the first packet.
  test::HarnessOptions opts;
  opts.mode = MobilityMode::kCostUnaware;
  auto h = make_harness(crooked_path(), opts);
  h.net().warmup(Seconds{25.0});
  net::FlowSpec spec = default_flow(h.net(), 8192.0 * 2000);
  spec.initially_enabled = true;
  h.net().start_flow(spec);
  h.net().run_flows(Seconds{3000.0});
  ASSERT_TRUE(h.net().progress(1).completed);

  // Baseline (static) energy for the same workload.
  test::HarnessOptions base_opts;
  base_opts.mode = MobilityMode::kNoMobility;
  auto base = make_harness(crooked_path(), base_opts);
  base.net().warmup(Seconds{25.0});
  base.net().start_flow(default_flow(base.net(), 8192.0 * 2000));
  base.net().run_flows(Seconds{3000.0});
  ASSERT_TRUE(base.net().progress(1).completed);

  EXPECT_LT(h.net().total_transmit_energy(),
            base.net().total_transmit_energy());
}

TEST(MaxLifetimeConvergence, HopLengthsFollowResidualEnergy) {
  // Theorem 1: at steady state, hop length must grow with the upstream
  // node's residual energy. Build a line where relay energies alternate
  // and verify hop ordering after convergence.
  std::vector<geom::Vec2> positions{
      {0, 0}, {130, 0}, {260, 0}, {390, 0}, {520, 0}};
  test::HarnessOptions opts;
  opts.mode = MobilityMode::kCostUnaware;  // unconditional strategy motion
  opts.k = 0.0;  // isolate the placement rule from energy death
  // Rich relay 1, poor relay 2, rich relay 3.
  opts.node_energy_j = {opts.initial_energy_j, Joules{2000.0}, Joules{200.0},
                        Joules{2000.0}};
  auto h = make_harness(positions, opts);
  h.net().warmup(Seconds{25.0});

  net::FlowSpec spec =
      default_flow(h.net(), 8192.0 * 2000, net::StrategyId::kMaxLifetime);
  spec.initially_enabled = true;
  h.net().start_flow(spec);
  h.net().run_flows(Seconds{3000.0});

  // Hops: 0->1 (rich src 2000 vs rich 2000), 1->2 (rich prev),
  // 2->3 (poor prev), 3->4.
  const auto hop = [&](net::NodeId a, net::NodeId b) {
    return geom::distance(h.net().node(a).position(),
                          h.net().node(b).position());
  };
  // The poor node 2's outgoing hop must be the shortest of the interior
  // hops; its incoming hop (paid by rich node 1) must be longer.
  EXPECT_LT(hop(2, 3), hop(1, 2));
  EXPECT_LT(hop(2, 3), hop(3, 4));
}

TEST(MaxLifetimeConvergence, DiffersFromMinEnergyPlacement) {
  // Figure 5(b) vs 5(c): with unequal energies the two strategies settle
  // on different configurations.
  std::vector<geom::Vec2> positions{{0, 0}, {150, 40}, {300, -40}, {450, 0}};
  auto run = [&](net::StrategyId strategy) {
    test::HarnessOptions opts;
    opts.mode = MobilityMode::kCostUnaware;
    opts.k = 0.0;
    opts.node_energy_j = {opts.initial_energy_j, Joules{3000.0},
                          Joules{300.0}};
    auto h = make_harness(positions, opts);
    h.net().warmup(Seconds{25.0});
    net::FlowSpec spec = default_flow(h.net(), 8192.0 * 1500, strategy);
    spec.initially_enabled = true;
    h.net().start_flow(spec);
    h.net().run_flows(Seconds{2500.0});
    return h.net().positions();
  };
  const auto min_energy = run(net::StrategyId::kMinTotalEnergy);
  const auto lifetime = run(net::StrategyId::kMaxLifetime);
  // Both on the line...
  const geom::Segment line{{0, 0}, {450, 0}};
  EXPECT_LT(line.distance_to(min_energy[1]), 3.0);
  EXPECT_LT(line.distance_to(lifetime[1]), 3.0);
  // ...but at different stations.
  EXPECT_GT(geom::distance(min_energy[1], lifetime[1]), 10.0);
  EXPECT_GT(geom::distance(min_energy[2], lifetime[2]), 10.0);
}

TEST(EnergyConservation, DrawsBalanceAcrossTheRun) {
  test::HarnessOptions opts;
  opts.mode = MobilityMode::kCostUnaware;
  opts.charge_hello_energy = true;
  auto h = make_harness(crooked_path(), opts);
  h.net().warmup(Seconds{25.0});
  net::FlowSpec spec = default_flow(h.net(), 8192.0 * 300);
  spec.initially_enabled = true;
  h.net().start_flow(spec);
  h.net().run_flows(Seconds{600.0});

  for (std::size_t i = 0; i < h.net().node_count(); ++i) {
    const auto& b = h.net().node(static_cast<net::NodeId>(i)).battery();
    EXPECT_NEAR(b.initial().value(),
                (b.residual() + b.consumed_total()).value(), 1e-6);
    EXPECT_NEAR(b.consumed_total().value(),
                (b.consumed_transmit() + b.consumed_move() +
                 b.consumed_other())
                    .value(),
                1e-6);
  }
  // Movement energy equals k times distance moved.
  EXPECT_NEAR(h.net().total_movement_energy().value(),
              0.5 * h.policy->total_distance_moved().value(), 1e-6);
}

}  // namespace
}  // namespace imobif::core
