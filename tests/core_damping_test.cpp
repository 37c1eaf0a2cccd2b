// Notification-damping option of the destination evaluator.
#include <gtest/gtest.h>

#include "runtime/sweep.hpp"
#include "test_helpers.hpp"

namespace imobif::core {
namespace {

using test::make_harness;

net::DataBody enable_worthy_packet(std::uint32_t seq) {
  net::DataBody data;
  data.strategy = net::StrategyId::kMinTotalEnergy;
  data.seq = seq;
  data.residual_flow_bits = util::Bits{1000.0};
  data.mobility_enabled = false;
  data.sender_has_plan = true;
  data.sender_move_cost = util::Joules{0.0};
  data.agg = {util::Bits{1e12}, util::Joules{1e12}, util::Bits{1.0},
              util::Joules{1.0}};  // mobility hugely better
  return data;
}

TEST(NotificationDamping, DefaultReNotifiesEveryPacket) {
  auto h = make_harness({{0, 0}, {100, 0}});
  net::FlowEntry entry;
  entry.prev = 0;
  int notifications = 0;
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    auto data = enable_worthy_packet(seq);
    data.sender_target = h.net().node(0).position();
    if (h.policy->evaluate_at_destination(h.net().node(1), data, entry)
            .has_value()) {
      ++notifications;
    }
  }
  EXPECT_EQ(notifications, 5);  // paper behaviour: per-packet re-evaluation
}

TEST(NotificationDamping, GapSuppressesRepeats) {
  auto h = make_harness({{0, 0}, {100, 0}});
  h.policy->set_notification_min_gap(3);
  net::FlowEntry entry;
  entry.prev = 0;
  std::vector<std::uint32_t> notified_at;
  for (std::uint32_t seq = 0; seq < 8; ++seq) {
    auto data = enable_worthy_packet(seq);
    data.sender_target = h.net().node(0).position();
    if (h.policy->evaluate_at_destination(h.net().node(1), data, entry)
            .has_value()) {
      notified_at.push_back(seq);
    }
  }
  EXPECT_EQ(notified_at, (std::vector<std::uint32_t>{0, 3, 6}));
}

TEST(NotificationDamping, NoRequestNoStateChange) {
  auto h = make_harness({{0, 0}, {100, 0}});
  h.policy->set_notification_min_gap(3);
  net::FlowEntry entry;
  entry.prev = 0;
  auto data = enable_worthy_packet(0);
  data.sender_target = h.net().node(0).position();
  data.mobility_enabled = true;  // already enabled: no request wanted
  EXPECT_FALSE(h.policy->evaluate_at_destination(h.net().node(1), data, entry)
                   .has_value());
  // The gap clock must not have started.
  EXPECT_FALSE(entry.last_notify_seq.has_value());
}

TEST(NotificationDamping, GapAppliesAcrossDirectionFlips) {
  auto h = make_harness({{0, 0}, {100, 0}});
  h.policy->set_notification_min_gap(5);
  net::FlowEntry entry;
  entry.prev = 0;

  auto enable = enable_worthy_packet(0);
  enable.sender_target = h.net().node(0).position();
  ASSERT_TRUE(h.policy->evaluate_at_destination(h.net().node(1), enable, entry)
                  .has_value());

  // One packet later mobility looks worse and is enabled: a disable would
  // be wanted, but the gap holds it back.
  auto disable = enable_worthy_packet(1);
  disable.sender_target = h.net().node(0).position();
  disable.mobility_enabled = true;
  disable.agg = {util::Bits{1.0}, util::Joules{1.0}, util::Bits{1e12},
                 util::Joules{1e12}};
  EXPECT_FALSE(
      h.policy->evaluate_at_destination(h.net().node(1), disable, entry)
          .has_value());

  disable.seq = 6;  // past the gap
  EXPECT_TRUE(
      h.policy->evaluate_at_destination(h.net().node(1), disable, entry)
          .has_value());
}

TEST(NotificationDamping, EndToEndRateBoundHolds) {
  // The gap's contract is a *rate limit*: per flow, at most one
  // notification every `gap` data packets (it cannot promise fewer total
  // flips when the cost/benefit signal genuinely oscillates). Completion
  // must be unaffected.
  exp::ScenarioParams p;
  p.mobility.k = 0.1;
  p.mean_flow_bits = util::Bits{1024.0 * 1024.0 * 8.0};
  p.length_estimate_factor = 4.0;  // oscillation-prone (see ablation A2)
  p.node_count = 60;
  p.area_m = util::Meters{800.0};
  p.seed = 21;
  p.notification_min_gap = 8;

  const auto points = runtime::run_comparison_parallel(p, 4);
  for (const auto& pt : points) {
    EXPECT_TRUE(pt.informed.completed);
    const double packets = std::ceil(pt.flow_bits / p.packet_bits);
    const auto bound =
        static_cast<std::uint64_t>(packets / p.notification_min_gap) + 1;
    EXPECT_LE(pt.informed.notifications, bound);
  }
}

}  // namespace
}  // namespace imobif::core
