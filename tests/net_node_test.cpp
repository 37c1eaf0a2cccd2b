#include "net/node.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace imobif::net {
namespace {

using test::default_flow;
using test::line_positions;
using test::make_harness;
using util::Bits;
using util::Joules;
using util::JoulesPerMeter;
using util::Meters;
using util::Seconds;

TEST(Node, RequiresCoreServices) {
  const NodeConfig config;
  Node::Services empty;
  EXPECT_THROW(Node(0, {0, 0}, Joules{1.0}, empty, config),
               std::invalid_argument);

  // Core services but no events sink, then no NodeStore slot for the id:
  // drops and deaths have nowhere to go, position and residual nowhere to
  // live.
  sim::Simulator sim;
  Medium medium(sim, MediumConfig{});
  energy::RadioEnergyModel radio{energy::RadioParams{}};
  NetworkEvents events;
  NodeStore store;
  store.add({0, 0}, Joules{1.0});
  Node::Services services;
  services.sim = &sim;
  services.medium = &medium;
  services.radio = &radio;
  services.store = &store;
  EXPECT_THROW(Node(0, {0, 0}, Joules{1.0}, services, config),
               std::invalid_argument);
  services.events = &events;
  services.store = nullptr;
  EXPECT_THROW(Node(0, {0, 0}, Joules{1.0}, services, config),
               std::invalid_argument);
  services.store = &store;
  EXPECT_THROW(Node(1, {0, 0}, Joules{1.0}, services, config),
               std::invalid_argument);
  EXPECT_NO_THROW(Node(0, {0, 0}, Joules{1.0}, services, config));
}

TEST(Node, HelloPopulatesNeighborTables) {
  auto h = make_harness(line_positions(3, 300.0));  // hops of 150 m
  h.net().start_hellos();
  h.net().simulator().run(sim::Time::from_seconds(15.0));
  const auto now = h.net().simulator().now();
  // Adjacent nodes (150 m < 180 m range) know each other; the ends do not.
  EXPECT_TRUE(h.net().node(1).neighbors().find(0, now).has_value());
  EXPECT_TRUE(h.net().node(1).neighbors().find(2, now).has_value());
  EXPECT_FALSE(h.net().node(0).neighbors().find(2, now).has_value());
}

TEST(Node, HelloCarriesPositionAndEnergy) {
  auto h = make_harness({{0, 0}, {100, 0}});
  h.net().node(0).battery().draw(Joules{500.0}, energy::DrawKind::kOther);
  h.net().node(0).send_hello_now();
  h.net().simulator().run();
  const auto info =
      h.net().node(1).neighbors().find(0, h.net().simulator().now());
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->position, (geom::Vec2{0, 0}));
  EXPECT_DOUBLE_EQ(info->residual_energy.value(), 1500.0);
}

TEST(Node, HelloEnergyChargedWhenConfigured) {
  test::HarnessOptions opts;
  opts.charge_hello_energy = true;
  auto h = make_harness({{0, 0}, {100, 0}}, opts);
  const Joules before = h.net().node(0).battery().residual();
  h.net().node(0).send_hello_now();
  EXPECT_LT(h.net().node(0).battery().residual(), before);
}

TEST(Node, HelloEnergyFreeByDefaultInTests) {
  auto h = make_harness({{0, 0}, {100, 0}});
  const Joules before = h.net().node(0).battery().residual();
  h.net().node(0).send_hello_now();
  EXPECT_DOUBLE_EQ(h.net().node(0).battery().residual().value(),
                   before.value());
}

TEST(Node, StartStopHello) {
  auto h = make_harness({{0, 0}, {100, 0}});
  Node& n = h.net().node(0);
  n.start_hello();
  EXPECT_TRUE(n.hello_active());
  n.stop_hello();
  EXPECT_FALSE(n.hello_active());
  h.net().simulator().run(sim::Time::from_seconds(60.0));
  EXPECT_FALSE(h.net()
                   .node(1)
                   .neighbors()
                   .find(0, h.net().simulator().now())
                   .has_value());
}

TEST(Node, TransmitChargesDistanceDependentEnergy) {
  auto h = make_harness({{0, 0}, {100, 0}});
  Node& src = h.net().node(0);
  Packet pkt;
  pkt.type = PacketType::kHello;
  pkt.sender = SenderStamp{src.id(), src.position(), src.battery().residual()};
  pkt.link_dest = 1;
  pkt.size_bits = Bits{8192.0};
  const Joules before = src.battery().residual();
  EXPECT_TRUE(src.transmit(pkt, 1, {100, 0}));
  const Joules expected =
      src.radio().transmit_energy(Meters{100.0}, Bits{8192.0});
  EXPECT_NEAR((before - src.battery().residual()).value(), expected.value(),
              1e-12);
  EXPECT_NEAR(src.battery().consumed_transmit().value(),
              (before - src.battery().residual()).value(), 1e-9);
}

TEST(Node, TransmitFailsWhenEnergyInsufficient) {
  test::HarnessOptions opts;
  opts.initial_energy_j = util::Joules{1e-9};
  auto h = make_harness({{0, 0}, {100, 0}}, opts);
  Node& src = h.net().node(0);
  Packet pkt;
  pkt.type = PacketType::kHello;
  pkt.link_dest = 1;
  pkt.size_bits = Bits{8192.0};
  EXPECT_FALSE(src.transmit(pkt, 1, {100, 0}));
  EXPECT_TRUE(src.battery().depleted());
  EXPECT_FALSE(src.alive());
}

TEST(Node, MoveTowardsBoundedStep) {
  auto h = make_harness({{0, 0}, {100, 0}});
  Node& n = h.net().node(0);
  const Meters moved =
      n.move_towards({10.0, 0.0}, Meters{1.0}, JoulesPerMeter{0.5});
  EXPECT_DOUBLE_EQ(moved.value(), 1.0);
  EXPECT_EQ(n.position(), (geom::Vec2{1.0, 0.0}));
  EXPECT_DOUBLE_EQ(n.battery().consumed_move().value(), 0.5);
  EXPECT_DOUBLE_EQ(n.total_moved().value(), 1.0);
}

TEST(Node, MoveTowardsReachesNearTarget) {
  auto h = make_harness({{0, 0}, {100, 0}});
  Node& n = h.net().node(0);
  const Meters moved =
      n.move_towards({0.4, 0.0}, Meters{1.0}, JoulesPerMeter{0.5});
  EXPECT_NEAR(moved.value(), 0.4, 1e-12);
  EXPECT_NEAR(n.position().x, 0.4, 1e-12);
}

TEST(Node, MoveTruncatedByBattery) {
  test::HarnessOptions opts;
  opts.initial_energy_j = util::Joules{0.3};
  auto h = make_harness({{0, 0}, {100, 0}}, opts);
  Node& n = h.net().node(0);
  const Meters moved =
      n.move_towards({10.0, 0.0}, Meters{1.0}, JoulesPerMeter{0.5});
  EXPECT_NEAR(moved.value(), 0.6, 1e-9);
  EXPECT_TRUE(n.battery().depleted());
  // Dead nodes do not move further.
  EXPECT_DOUBLE_EQ(
      n.move_towards({10.0, 0.0}, Meters{1.0}, JoulesPerMeter{0.5}).value(),
      0.0);
}

TEST(Node, FreeMovementWithZeroCost) {
  auto h = make_harness({{0, 0}, {100, 0}});
  Node& n = h.net().node(0);
  const Joules before = n.battery().residual();
  n.move_towards({1.0, 0.0}, Meters{2.0}, JoulesPerMeter{0.0});
  EXPECT_DOUBLE_EQ(n.battery().residual().value(), before.value());
  EXPECT_EQ(n.position(), (geom::Vec2{1.0, 0.0}));
}

TEST(Node, LookupPrefersNeighborTable) {
  auto h = make_harness({{0, 0}, {100, 0}});
  Node& n = h.net().node(0);
  n.neighbors().upsert(1, {90, 0}, Joules{7.0}, h.net().simulator().now());
  const NeighborInfo info = n.lookup(1);
  EXPECT_EQ(info.position, (geom::Vec2{90, 0}));  // stale table value wins
  EXPECT_DOUBLE_EQ(info.residual_energy.value(), 7.0);
}

TEST(Node, LookupFallsBackToOracle) {
  auto h = make_harness({{0, 0}, {100, 0}});
  const NeighborInfo info = h.net().node(0).lookup(1);
  EXPECT_EQ(info.position, (geom::Vec2{100, 0}));  // ground truth
  EXPECT_DOUBLE_EQ(info.residual_energy.value(), 0.0);  // energy unknown
}

TEST(Node, DeadNodeDropsReceivedPackets) {
  auto h = make_harness({{0, 0}, {100, 0}});
  Node& dead = h.net().node(1);
  dead.battery().draw(Joules{1e9}, energy::DrawKind::kOther);
  Packet pkt;
  pkt.type = PacketType::kHello;
  pkt.sender = SenderStamp{0, {0, 0}, Joules{1.0}};
  dead.handle_receive(pkt);
  EXPECT_EQ(dead.neighbors().size(), 0u);
}

TEST(Node, DataPipelineDeliversAlongLine) {
  auto h = make_harness(line_positions(4, 450.0));  // hops of 150 m
  h.net().warmup(Seconds{25.0});
  h.net().start_flow(default_flow(h.net(), 8192.0 * 3));
  h.net().run_flows(Seconds{60.0});
  const auto& prog = h.net().progress(1);
  EXPECT_TRUE(prog.completed);
  EXPECT_DOUBLE_EQ(prog.delivered_bits.value(), 8192.0 * 3);
  // Relays pinned prev/next along the line.
  const FlowEntry* relay = h.net().node(1).flows().find(1);
  ASSERT_NE(relay, nullptr);
  EXPECT_EQ(relay->prev, 0u);
  EXPECT_EQ(relay->next, 2u);
}

TEST(Node, HopCountIncrementsPerRelay) {
  auto h = make_harness(line_positions(4, 450.0));
  h.net().warmup(Seconds{25.0});
  h.net().start_flow(default_flow(h.net(), 8192.0));
  h.net().run_flows(Seconds{60.0});
  // 3 hops: relays at 1 and 2 each increment once.
  EXPECT_TRUE(h.net().progress(1).completed);
}

}  // namespace
}  // namespace imobif::net
