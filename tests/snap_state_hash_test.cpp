// Field sensitivity of snap::state_hash (DESIGN.md §9/§15).
//
// The checkpoint-exhaustiveness gate (tools/imobif_lint.py) proves
// statically that every mutable field is persisted or annotated; this test
// proves the complementary dynamic property: the digest actually *depends*
// on each persisted dynamic section. A mid-flight run is perturbed through
// the same restore accessors the snapshot codec uses — network progress,
// medium counters, node position/battery, policy counters, mobility rng
// and model state, traffic generator state — and every perturbation must
// move the hash. Meta-only state (the sampler RNG) must NOT move it, since
// replay bisection compares hashes across runs that intentionally differ
// in a meta parameter. The digest itself is pinned on a fixed value
// sequence, with its tag, length and framing sensitivity.
#include "snap/snapshot.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/instance.hpp"
#include "mob/params.hpp"
#include "snap/state_hash.hpp"
#include "snap_known_answer.hpp"
#include "traffic/generator.hpp"
#include "traffic/params.hpp"
#include "util/rng.hpp"

namespace imobif::snap {
namespace {

/// Model-zoo scenario: background motion and shaped traffic so the mob
/// and traffic sections carry real state.
exp::ScenarioParams zoo_params() {
  exp::ScenarioParams p;
  p.node_count = 60;
  p.area_m = util::Meters{800.0};
  p.mean_flow_bits = util::Bits{60.0 * 1024.0 * 8.0};
  p.seed = 42;
  p.mob.model = mob::ModelId::kRandomWaypoint;
  p.mob.update_s = util::Seconds{1.0};
  p.mob.speed_min = util::MetersPerSecond{0.5};
  p.mob.speed_max = util::MetersPerSecond{2.0};
  p.mob.pause_s = util::Seconds{5.0};
  p.traffic.model = traffic::ModelId::kOnOff;
  return p;
}

std::unique_ptr<exp::InstanceRun> midflight_run() {
  const exp::ScenarioParams params = zoo_params();
  util::Rng rng(params.seed);
  const exp::FlowInstance instance = exp::sample_instance(params, rng);
  auto run = exp::InstanceRun::create(instance, params,
                                      core::MobilityMode::kInformed, {});
  run->set_sampler_rng_state(rng.state());
  run->advance(1500);
  return run;
}

TEST(SnapStateHashTest, MetaOnlyChangeLeavesDigestUntouched) {
  auto run = midflight_run();
  const std::uint64_t before = state_hash(*run);
  const std::string bytes_before = encode(*run);

  run->set_sampler_rng_state({1u, 2u, 3u, 4u});

  // The snapshot bytes change (the sampler RNG lives in "meta") but the
  // dynamic-state digest must not.
  EXPECT_NE(encode(*run), bytes_before);
  EXPECT_EQ(state_hash(*run), before);
}

TEST(SnapStateHashTest, EveryDynamicSectionMovesTheDigest) {
  auto run = midflight_run();
  net::Network& network = run->network();
  std::uint64_t last = state_hash(*run);

  auto expect_moved = [&](const char* section) {
    const std::uint64_t now = state_hash(*run);
    EXPECT_NE(now, last) << "state_hash insensitive to " << section;
    last = now;
  };

  // network section: last-progress timestamp.
  network.restore_last_progress(network.last_progress() +
                                sim::Time::from_ticks(1));
  expect_moved("network last-progress time");

  // network section: scalar drop counter.
  network.restore_total_data_drops(network.total_data_drops() + 7);
  expect_moved("network drop counter");

  // medium section: delivery counters.
  net::Medium::Counters counters = network.medium().counters();
  counters.unicasts += 1;
  network.medium().restore_counters(counters);
  expect_moved("medium counters");

  // nodes section: a node position.
  net::Node& node = network.node(0);
  node.set_position(node.position() + geom::Vec2{1.0, 0.0});
  expect_moved("node position");

  // nodes section: battery split.
  energy::Battery& battery = node.battery();
  battery.restore(battery.initial(),
                  battery.residual() - util::Joules{1e-3},
                  battery.consumed_transmit() + util::Joules{1e-3},
                  battery.consumed_move(), battery.consumed_other());
  expect_moved("node battery");

  // policy section: movement counters.
  core::ImobifPolicy& policy = run->policy();
  policy.restore_counters(policy.movements_applied() + 1,
                          policy.total_distance_moved(),
                          policy.recruits_initiated());
  expect_moved("policy counters");

  // mob section: the mobility model's RNG and its state vector.
  ASSERT_NE(run->motion(), nullptr);
  mob::MobilityModel& model = run->motion()->model();
  model.rng().reseed(999);
  expect_moved("mobility rng");

  std::vector<double> state = model.state();
  ASSERT_FALSE(state.empty());
  state.front() += 0.5;
  model.restore_state(state);
  expect_moved("mobility model state");

  // traffic section: a generator's (rng, state) pair.
  const auto& generators = network.traffic_generators();
  ASSERT_FALSE(generators.empty());
  const auto& [flow_id, generator] = *generators.begin();
  util::Rng reseeded(12345);
  network.restore_traffic_state(flow_id, reseeded.state(),
                                generator->state());
  expect_moved("traffic generator state");

  // sim/events sections: executing one more event advances the clock.
  run->advance(1);
  expect_moved("simulator clock after one event");
}

template <class Fn>
std::uint64_t digest_of(Fn&& feed) {
  StateHash h;
  feed(h);
  return h.digest();
}

// Pins the digest function: only hashes from one build are ever compared,
// but a change to the mixing must be deliberate.
TEST(SnapStateHashTest, KnownAnswerDigest) {
  EXPECT_EQ(digest_of([](StateHash& h) { test::known_answer_sequence(h); }),
            0x8f0cd576527dc435ull);
  EXPECT_EQ(digest_of([](StateHash&) {}), 0xefd01f60ba992926ull);
}

TEST(SnapStateHashTest, TagSeparatesSameBits) {
  const std::uint64_t x = 0x400921fb54442d18ull;  // pi's bit pattern
  const std::uint64_t as_u64 = digest_of([&](StateHash& h) { h.u64(x); });
  const std::uint64_t as_i64 = digest_of(
      [&](StateHash& h) { h.i64(static_cast<std::int64_t>(x)); });
  const std::uint64_t as_f64 =
      digest_of([&](StateHash& h) { h.f64(std::bit_cast<double>(x)); });
  EXPECT_NE(as_u64, as_i64);
  EXPECT_NE(as_u64, as_f64);
  EXPECT_NE(as_i64, as_f64);
}

TEST(SnapStateHashTest, StringLengthsSeparateConcatenations) {
  EXPECT_NE(digest_of([](StateHash& h) {
              h.str("ab");
              h.str("c");
            }),
            digest_of([](StateHash& h) {
              h.str("a");
              h.str("bc");
            }));
  // Eight-byte blocks and the zero-padded tail both enter the digest.
  EXPECT_NE(digest_of([](StateHash& h) { h.str("0123456789"); }),
            digest_of([](StateHash& h) { h.str("0123456789a"); }));
  EXPECT_NE(digest_of([](StateHash& h) { h.str("01234567x9"); }),
            digest_of([](StateHash& h) { h.str("0123456789"); }));
}

TEST(SnapStateHashTest, SectionFramingMovesTheDigest) {
  const std::uint64_t flat = digest_of([](StateHash& h) { h.u64(7); });
  const std::uint64_t framed = digest_of([](StateHash& h) {
    h.begin_section("s");
    h.u64(7);
    h.end_section();
  });
  const std::uint64_t renamed = digest_of([](StateHash& h) {
    h.begin_section("t");
    h.u64(7);
    h.end_section();
  });
  const std::uint64_t nested = digest_of([](StateHash& h) {
    h.begin_section("s");
    h.begin_section("s");
    h.u64(7);
    h.end_section();
    h.end_section();
  });
  EXPECT_NE(flat, framed);
  EXPECT_NE(framed, renamed);
  EXPECT_NE(framed, nested);
}

}  // namespace
}  // namespace imobif::snap
