// Checkpoint/restore equivalence (DESIGN.md §9): a run snapshotted at an
// arbitrary event boundary and restored from bytes must (a) hash equal to
// the original, (b) re-encode to the identical snapshot, and (c) finish
// with a byte-identical canonical RunResult JSON — across a clean
// fig6-style scenario, a bursty Gilbert–Elliott lossy one, and a
// multi-flow one.
#include "snap/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "exp/instance.hpp"
#include "snap/checkpointer.hpp"
#include "snap/result_io.hpp"
#include "util/rng.hpp"

namespace imobif::snap {
namespace {

exp::ScenarioParams base_params() {
  exp::ScenarioParams p;
  p.node_count = 60;
  p.area_m = util::Meters{800.0};
  p.mean_flow_bits = util::Bits{60.0 * 1024.0 * 8.0};
  p.seed = 42;
  return p;
}

exp::ScenarioParams lossy_ge_params() {
  exp::ScenarioParams p = base_params();
  p.seed = 97;
  p.fault.gilbert_elliott = true;
  p.fault.p_good_to_bad = 0.05;
  p.fault.p_bad_to_good = 0.3;
  p.fault.loss_bad = 0.8;
  p.fault.seed = 777;
  p.notify_retry_cap = 4;
  return p;
}

std::string result_json(exp::InstanceRun& run) {
  return result_to_json(run.result()).dump(2);
}

/// Runs the scenario uninterrupted, then re-runs it with a snapshot taken
/// after `boundary_events` simulator events and restored in a fresh
/// object graph; both must finish identically.
void expect_checkpoint_equivalence(const exp::ScenarioParams& params,
                                   core::MobilityMode mode,
                                   const exp::RunOptions& options,
                                   std::size_t boundary_events) {
  SCOPED_TRACE("boundary_events=" + std::to_string(boundary_events));
  util::Rng rng(params.seed);
  const exp::FlowInstance instance = exp::sample_instance(params, rng);

  auto reference = exp::InstanceRun::create(instance, params, mode, options);
  EXPECT_TRUE(reference->advance());
  const std::string expected = result_json(*reference);

  util::Rng rng2(params.seed);
  const exp::FlowInstance instance2 = exp::sample_instance(params, rng2);
  auto original = exp::InstanceRun::create(instance2, params, mode, options);
  original->set_sampler_rng_state(rng2.state());
  original->advance(boundary_events);

  const std::uint64_t hash_before = state_hash(*original);
  const std::string bytes = encode(*original);

  auto restored = restore(bytes);
  // Bit-exact state: same dynamic hash, and re-encoding reproduces the
  // snapshot byte for byte (meta included).
  EXPECT_EQ(state_hash(*restored), hash_before);
  EXPECT_EQ(encode(*restored), bytes);
  ASSERT_TRUE(restored->sampler_rng_state().has_value());
  EXPECT_EQ(*restored->sampler_rng_state(), rng2.state());

  // Both halves of the split run finish with the reference result.
  EXPECT_TRUE(restored->advance());
  EXPECT_EQ(result_json(*restored), expected);
  EXPECT_TRUE(original->advance());
  EXPECT_EQ(result_json(*original), expected);
}

TEST(SnapCheckpoint, BaselineScenarioEquivalentAtManyBoundaries) {
  for (const std::size_t boundary : {std::size_t{1}, std::size_t{487},
                                     std::size_t{5000}}) {
    expect_checkpoint_equivalence(base_params(),
                                  core::MobilityMode::kInformed, {},
                                  boundary);
  }
}

TEST(SnapCheckpoint, LossyGilbertElliottScenarioEquivalent) {
  for (const std::size_t boundary : {std::size_t{311}, std::size_t{4000}}) {
    expect_checkpoint_equivalence(lossy_ge_params(),
                                  core::MobilityMode::kInformed, {},
                                  boundary);
  }
}

TEST(SnapCheckpoint, MultiflowScenarioEquivalent) {
  exp::ScenarioParams params = base_params();
  params.seed = 7;
  util::Rng probe(params.seed);
  const exp::FlowInstance instance = exp::sample_instance(params, probe);

  exp::RunOptions options;
  options.multi_flow_blending = true;
  net::FlowSpec extra;
  extra.id = 2;
  extra.source = instance.destination;
  extra.destination = instance.source;
  extra.length_bits = util::Bits{30.0 * 1024.0 * 8.0};
  extra.packet_bits = util::Bits{params.packet_bits};
  extra.rate_bps = util::BitsPerSecond{params.rate_bps};
  extra.strategy = params.strategy;
  options.extra_flows.push_back(extra);

  for (const std::size_t boundary : {std::size_t{701}, std::size_t{6000}}) {
    expect_checkpoint_equivalence(params, core::MobilityMode::kInformed,
                                  options, boundary);
  }
}

TEST(SnapCheckpoint, CostUnawareAndBaselineModesEquivalent) {
  expect_checkpoint_equivalence(base_params(),
                                core::MobilityMode::kNoMobility, {}, 1500);
  expect_checkpoint_equivalence(base_params(),
                                core::MobilityMode::kCostUnaware, {}, 1500);
}

// Seeds use the whole uint64 range; the scenario text embedded in the meta
// section must carry 2^64 - 1 through restore.
TEST(SnapCheckpoint, FullRangeSeedsSurviveRestore) {
  exp::ScenarioParams params = base_params();
  params.seed = std::numeric_limits<std::uint64_t>::max();
  params.fault.seed = std::numeric_limits<std::uint64_t>::max();
  util::Rng rng(params.seed);
  const exp::FlowInstance instance = exp::sample_instance(params, rng);
  auto run = exp::InstanceRun::create(instance, params,
                                      core::MobilityMode::kInformed, {});
  run->advance(500);
  const std::string bytes = encode(*run);
  auto restored = restore(bytes);
  EXPECT_EQ(restored->params().seed, params.seed);
  EXPECT_EQ(restored->params().fault.seed, params.fault.seed);
  EXPECT_EQ(encode(*restored), bytes);
}

TEST(SnapCheckpoint, SaveRestoreFileRoundTrip) {
  const exp::ScenarioParams params = base_params();
  util::Rng rng(params.seed);
  const exp::FlowInstance instance = exp::sample_instance(params, rng);
  auto run = exp::InstanceRun::create(instance, params,
                                      core::MobilityMode::kInformed, {});
  run->advance(2000);

  const std::string path = ::testing::TempDir() + "snap_checkpoint_rt.ckpt";
  save(*run, path);
  auto restored = restore_file(path);
  EXPECT_EQ(state_hash(*restored), state_hash(*run));
  std::remove(path.c_str());
}

TEST(SnapCheckpoint, RestoredInFlightPacketsLeaveTheSlabEmpty) {
  // Snapshot with deliveries in flight: restore stores one slab copy per
  // pending kDeliver record, and the slab is empty again once they ran.
  const exp::ScenarioParams params = lossy_ge_params();
  util::Rng rng(params.seed);
  const exp::FlowInstance instance = exp::sample_instance(params, rng);
  auto run = exp::InstanceRun::create(instance, params,
                                      core::MobilityMode::kInformed, {});
  const auto deliveries = [](exp::InstanceRun& r) {
    std::size_t n = 0;
    for (const sim::Event& ev : r.network().simulator().pending()) {
      if (ev.tag.kind == sim::EventTag::Kind::kDeliver) ++n;
    }
    return n;
  };
  while (deliveries(*run) == 0) ASSERT_FALSE(run->advance(1));
  const std::size_t in_flight = deliveries(*run);

  auto restored = restore(encode(*run));
  net::Network& network = restored->network();
  EXPECT_EQ(network.medium().packets().in_use(), in_flight);
  // Silence the beacons and drain the queue: the flow runs out, and
  // nothing is left in flight or in the slab.
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    network.node(static_cast<net::NodeId>(i)).stop_hello();
  }
  network.simulator().run();
  EXPECT_EQ(network.simulator().pending_events(), 0u);
  EXPECT_EQ(network.medium().packets().in_use(), 0u);
}

TEST(SnapCheckpoint, PendingDeliveriesReencodeIdentically) {
  // Snapshots taken mid-fan-out, with deliveries pending beside HELLO
  // ticks: restore re-inserts every record in execution order, so the
  // restored queue re-encodes to the same bytes and both copies stay in
  // step event by event.
  const exp::ScenarioParams params = base_params();
  util::Rng rng(params.seed);
  const exp::FlowInstance instance = exp::sample_instance(params, rng);
  auto run = exp::InstanceRun::create(instance, params,
                                      core::MobilityMode::kInformed, {});
  const auto deliveries = [](exp::InstanceRun& r) {
    std::size_t n = 0;
    for (const sim::Event& ev : r.network().simulator().pending()) {
      if (ev.tag.kind == sim::EventTag::Kind::kDeliver) ++n;
    }
    return n;
  };
  for (int snapshot = 0; snapshot < 3; ++snapshot) {
    ASSERT_FALSE(run->advance(301));
    // Stop between two deliveries of one broadcast.
    while (deliveries(*run) < 2) ASSERT_FALSE(run->advance(1));
    ASSERT_FALSE(run->advance(1));
    ASSERT_GE(deliveries(*run), 1u);

    const std::string bytes = encode(*run);
    auto restored = restore(bytes);
    EXPECT_EQ(encode(*restored), bytes);
    for (int step = 0; step < 40; ++step) {
      ASSERT_FALSE(run->advance(1));
      ASSERT_FALSE(restored->advance(1));
      ASSERT_EQ(encode(*restored), encode(*run)) << "step " << step;
    }
  }
}

TEST(SnapCheckpoint, SnapshotAtEveryFanCursorRestoresExactly) {
  // A broadcast with at least eight receivers is one fan-out entry in the
  // event queue, which hands its deliveries out one pop at a time. A
  // snapshot right after the broadcast and one after each of its pops
  // covers every cursor position: each must re-encode to the same bytes
  // after restore, and the restored copy must stay byte-identical to the
  // original for 40 events.
  const exp::ScenarioParams params = base_params();
  util::Rng rng(params.seed);
  const exp::FlowInstance instance = exp::sample_instance(params, rng);
  constexpr std::size_t kLead = 1000;  // events before looking for a fan
  // Replays the first kLead events and then `steps` single-event steps.
  const auto replay = [&](std::size_t steps) {
    auto run = exp::InstanceRun::create(instance, params,
                                        core::MobilityMode::kInformed, {});
    EXPECT_FALSE(run->advance(kLead));
    for (std::size_t i = 0; i < steps; ++i) EXPECT_FALSE(run->advance(1));
    return run;
  };
  // The broadcast's pending deliveries: one time, one packet slot.
  struct FanKey {
    sim::Time when;
    std::uint32_t packet = 0;
  };
  const auto fan_left = [](exp::InstanceRun& r, const FanKey& fan) {
    std::size_t n = 0;
    for (const sim::Event& ev : r.network().simulator().pending()) {
      n += ev.tag.kind == sim::EventTag::Kind::kDeliver &&
           ev.when == fan.when && ev.tag.packet == fan.packet;
    }
    return n;
  };

  // Probe: find the broadcast, then count the steps to each of its pops.
  auto probe = replay(0);
  const net::Medium& medium = probe->network().medium();
  FanKey fan;
  std::size_t receivers = 0;
  std::size_t steps = 0;
  while (receivers == 0) {
    const net::Medium::Counters before = medium.counters();
    ASSERT_FALSE(probe->advance(1));
    ++steps;
    const net::Medium::Counters& after = medium.counters();
    if (after.broadcasts != before.broadcasts + 1 ||
        after.delivered < before.delivered + 8) {
      continue;
    }
    // Its last receiver is the newest pending delivery.
    std::uint64_t newest_seq = 0;
    for (const sim::Event& ev : probe->network().simulator().pending()) {
      if (ev.tag.kind == sim::EventTag::Kind::kDeliver &&
          ev.seq >= newest_seq) {
        newest_seq = ev.seq;
        fan = FanKey{ev.when, ev.tag.packet};
      }
    }
    receivers = fan_left(*probe, fan);
    ASSERT_EQ(receivers, after.delivered - before.delivered);
  }
  std::vector<std::size_t> cursors{steps};
  while (fan_left(*probe, fan) > 0) {
    const std::size_t left = fan_left(*probe, fan);
    ASSERT_FALSE(probe->advance(1));
    ++steps;
    if (fan_left(*probe, fan) < left) cursors.push_back(steps);
  }
  ASSERT_EQ(cursors.size(), receivers + 1);

  for (std::size_t k = 0; k < cursors.size(); ++k) {
    SCOPED_TRACE("after " + std::to_string(k) + " of " +
                 std::to_string(receivers) + " deliveries");
    auto original = replay(cursors[k]);
    ASSERT_EQ(fan_left(*original, fan), receivers - k);
    const std::string bytes = encode(*original);
    auto restored = restore(bytes);
    EXPECT_EQ(encode(*restored), bytes);
    for (int step = 0; step < 40; ++step) {
      ASSERT_FALSE(original->advance(1));
      ASSERT_FALSE(restored->advance(1));
      ASSERT_EQ(encode(*restored), encode(*original)) << "step " << step;
    }
  }
}

TEST(SnapCheckpoint, DebugJsonNamesEverySection) {
  const exp::ScenarioParams params = base_params();
  util::Rng rng(params.seed);
  const exp::FlowInstance instance = exp::sample_instance(params, rng);
  auto run = exp::InstanceRun::create(instance, params,
                                      core::MobilityMode::kInformed, {});
  run->advance(500);
  const std::string json = debug_json(*run);
  for (const char* section :
       {"meta", "sim", "network", "medium", "nodes", "policy", "events"}) {
    EXPECT_NE(json.find("\"section\": \"" + std::string(section) + "\""),
              std::string::npos)
        << "missing section " << section;
  }
}

TEST(SnapCheckpoint, CheckpointerWritesAtChunkBoundaries) {
  const exp::ScenarioParams params = base_params();
  util::Rng rng(params.seed);
  const exp::FlowInstance instance = exp::sample_instance(params, rng);
  auto run = exp::InstanceRun::create(instance, params,
                                      core::MobilityMode::kInformed, {});

  const std::string path = ::testing::TempDir() + "snap_checkpointer.ckpt";
  Checkpointer checkpointer(path, /*every_sim_s=*/20.0);
  checkpointer.install(*run);
  EXPECT_TRUE(run->advance());
  EXPECT_GE(checkpointer.checkpoints_written(), 1u);

  // The last checkpoint restores and finishes with the same result.
  auto restored = restore_file(path);
  EXPECT_TRUE(restored->advance());
  EXPECT_EQ(result_json(*restored), result_json(*run));
  std::remove(path.c_str());
}

TEST(SnapCheckpoint, RunResultBinaryRoundTrip) {
  const exp::ScenarioParams params = base_params();
  util::Rng rng(params.seed);
  const exp::FlowInstance instance = exp::sample_instance(params, rng);
  auto run = exp::InstanceRun::create(instance, params,
                                      core::MobilityMode::kInformed, {});
  EXPECT_TRUE(run->advance());
  const exp::RunResult result = run->result();

  const std::string path = ::testing::TempDir() + "snap_result_rt.bin";
  save_result(path, result);
  const exp::RunResult loaded = load_result(path);
  EXPECT_EQ(result_to_json(result).dump(), result_to_json(loaded).dump());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace imobif::snap
