#include "net/medium.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace imobif::net {
namespace {

using test::make_harness;

Packet hello_from(const Node& n) {
  Packet pkt;
  pkt.type = PacketType::kHello;
  pkt.sender = SenderStamp{n.id(), n.position(), n.battery().residual()};
  pkt.link_dest = kBroadcast;
  pkt.size_bits = util::Bits{256.0};
  pkt.body = HelloBody{};
  return pkt;
}

TEST(Medium, RejectsNonPositiveRange) {
  sim::Simulator sim;
  MediumConfig cfg;
  cfg.comm_range_m = 0.0;
  EXPECT_THROW(Medium(sim, cfg), std::invalid_argument);
}

TEST(Medium, AttachAndLookup) {
  auto h = make_harness({{0, 0}, {100, 0}});
  EXPECT_EQ(h.net().medium().node_count(), 2u);
  EXPECT_NE(h.net().medium().find_node(0), nullptr);
  EXPECT_NE(h.net().medium().find_node(1), nullptr);
  EXPECT_EQ(h.net().medium().find_node(42), nullptr);
}

TEST(Medium, TruePositionOracle) {
  auto h = make_harness({{0, 0}, {100, 50}});
  EXPECT_EQ(h.net().medium().true_position(1), (geom::Vec2{100, 50}));
  EXPECT_THROW(h.net().medium().true_position(9), std::out_of_range);
}

TEST(Medium, UnicastWithinRangeDelivers) {
  auto h = make_harness({{0, 0}, {100, 0}});
  Medium& medium = h.net().medium();
  EXPECT_TRUE(medium.unicast(h.net().node(0), 1, hello_from(h.net().node(0))));
  h.net().simulator().run();
  EXPECT_EQ(medium.counters().delivered, 1u);
  // The receiver learned the sender from the stamp.
  EXPECT_TRUE(h.net()
                  .node(1)
                  .neighbors()
                  .find(0, h.net().simulator().now())
                  .has_value());
}

TEST(Medium, UnicastIsPowerControlledByDefault) {
  // Unicast links model per-hop power control (Assumption 4): distance
  // beyond the nominal range is reachable, just more expensive.
  auto h = make_harness({{0, 0}, {500, 0}});  // nominal range is 180
  Medium& medium = h.net().medium();
  EXPECT_TRUE(
      medium.unicast(h.net().node(0), 1, hello_from(h.net().node(0))));
  EXPECT_EQ(medium.counters().dropped_out_of_range, 0u);
}

TEST(Medium, UnicastOutOfRangeDroppedWhenGated) {
  test::HarnessOptions opts;
  opts.unicast_range_gated = true;
  auto h = make_harness({{0, 0}, {500, 0}}, opts);  // range is 180
  Medium& medium = h.net().medium();
  EXPECT_FALSE(
      medium.unicast(h.net().node(0), 1, hello_from(h.net().node(0))));
  EXPECT_EQ(medium.counters().dropped_out_of_range, 1u);
  EXPECT_EQ(medium.counters().delivered, 0u);
}

TEST(Medium, UnicastToDeadNodeDropped) {
  auto h = make_harness({{0, 0}, {100, 0}});
  h.net().node(1).battery().draw(util::Joules{1e9},
                                 energy::DrawKind::kOther);
  EXPECT_FALSE(
      h.net().medium().unicast(h.net().node(0), 1, hello_from(h.net().node(0))));
  EXPECT_EQ(h.net().medium().counters().dropped_dead, 1u);
}

TEST(Medium, UnicastToUnknownDropped) {
  auto h = make_harness({{0, 0}, {100, 0}});
  EXPECT_FALSE(
      h.net().medium().unicast(h.net().node(0), 77, hello_from(h.net().node(0))));
  EXPECT_EQ(h.net().medium().counters().dropped_unknown, 1u);
}

TEST(Medium, BroadcastReachesAllInRangeExceptSender) {
  auto h = make_harness({{0, 0}, {100, 0}, {150, 0}, {400, 0}});
  h.net().medium().broadcast(h.net().node(0), hello_from(h.net().node(0)));
  h.net().simulator().run();
  // Nodes 1 (100 m) and 2 (150 m) hear it; node 3 (400 m) does not.
  EXPECT_EQ(h.net().medium().counters().delivered, 2u);
  const auto now = h.net().simulator().now();
  EXPECT_TRUE(h.net().node(1).neighbors().find(0, now).has_value());
  EXPECT_TRUE(h.net().node(2).neighbors().find(0, now).has_value());
  EXPECT_FALSE(h.net().node(3).neighbors().find(0, now).has_value());
  EXPECT_FALSE(h.net().node(0).neighbors().find(0, now).has_value());
}

TEST(Medium, DeliveryIsDelayedByPropagation) {
  auto h = make_harness({{0, 0}, {100, 0}});
  h.net().medium().unicast(h.net().node(0), 1, hello_from(h.net().node(0)));
  // Nothing delivered until the propagation delay elapses.
  EXPECT_FALSE(h.net()
                   .node(1)
                   .neighbors()
                   .find(0, h.net().simulator().now())
                   .has_value());
  h.net().simulator().run();
  EXPECT_GT(h.net().simulator().now(), sim::Time::zero());
}

TEST(Medium, BroadcastStoresOnePacketUntilEveryDeliveryRan) {
  auto h = make_harness({{0, 0}, {100, 0}, {150, 0}, {120, 60}});
  Medium& medium = h.net().medium();
  medium.broadcast(h.net().node(0), hello_from(h.net().node(0)));
  // Three receivers, one stored copy.
  EXPECT_EQ(h.net().simulator().pending_events(), 3u);
  EXPECT_EQ(medium.packets().in_use(), 1u);
  EXPECT_TRUE(h.net().simulator().step());
  EXPECT_EQ(medium.packets().in_use(), 1u);  // two deliveries still pending
  h.net().simulator().run();
  EXPECT_EQ(medium.counters().delivered, 3u);
  EXPECT_EQ(medium.packets().in_use(), 0u);

  // Unicasts store their own copy; the freed slot is reused.
  medium.unicast(h.net().node(1), 2, hello_from(h.net().node(1)));
  EXPECT_EQ(medium.packets().in_use(), 1u);
  h.net().simulator().run();
  EXPECT_EQ(medium.packets().in_use(), 0u);
}

TEST(Medium, SlabEmptiesWhenReceiversCrashOrDieMidFlight) {
  auto h = make_harness({{0, 0}, {100, 0}, {150, 0}, {120, 60}});
  Medium& medium = h.net().medium();
  medium.broadcast(h.net().node(0), hello_from(h.net().node(0)));
  medium.broadcast(h.net().node(3), hello_from(h.net().node(3)));
  EXPECT_EQ(medium.packets().in_use(), 2u);
  // In flight: one receiver crashes, another's battery runs out.
  h.net().node(1).set_faulted(true);
  h.net().node(2).battery().draw(util::Joules{1e9}, energy::DrawKind::kOther);
  h.net().simulator().run();
  EXPECT_EQ(medium.packets().in_use(), 0u);
  EXPECT_FALSE(h.net().node(1).neighbors().find(0, h.net().simulator().now()));
  EXPECT_TRUE(h.net().node(3).neighbors().find(0, h.net().simulator().now()));
}

TEST(Medium, DuplicateNodeIdRejected) {
  sim::Simulator sim;
  Medium medium(sim, MediumConfig{});
  energy::RadioEnergyModel radio{energy::RadioParams{}};
  NetworkEvents events;
  NodeStore store;
  store.add({0, 0}, util::Joules{10.0});
  store.add({0, 0}, util::Joules{10.0});
  Node::Services services;
  services.sim = &sim;
  services.medium = &medium;
  services.radio = &radio;
  services.events = &events;
  services.store = &store;
  const NodeConfig config;
  Node a(1, {0, 0}, util::Joules{10.0}, services, config);
  Node dup(1, {5, 5}, util::Joules{10.0}, services, config);
  medium.attach(a);
  EXPECT_THROW(medium.attach(dup), std::invalid_argument);
}

}  // namespace
}  // namespace imobif::net
