// Pins the snapshot codec's bytes (DESIGN.md §9): the committed mid-flight
// corpus snapshot restores and re-encodes to itself, and full runs of four
// scenarios under all three mobility modes, snapshotted every kEvery events
// (each run continuing on the restored copy) and closed with a .result
// file, hash to committed digests. The digest is
// a plain FNV-1a 64 over the encoded bytes, independent of snap::StateHash,
// so a layout change anywhere in encode or save_result shows up here even
// when it round-trips.
//
// When a layout change is intended, bump kCodecVersion and regenerate the
// digests from the failure messages.
#include "snap/snapshot.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

#include "exp/instance.hpp"
#include "mob/params.hpp"
#include "snap/codec.hpp"
#include "snap/result_io.hpp"
#include "traffic/params.hpp"
#include "util/rng.hpp"

namespace imobif::snap {
namespace {

constexpr std::size_t kEvery = 37;

struct Fnv1a64 {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const std::string& bytes) {
    for (const char c : bytes) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ull;
    }
  }
};

exp::ScenarioParams plain() {
  exp::ScenarioParams p;
  p.node_count = 60;
  p.area_m = util::Meters{800.0};
  p.mean_flow_bits = util::Bits{60.0 * 1024.0 * 8.0};
  p.seed = 42;
  return p;
}

exp::ScenarioParams lossy_retries() {
  exp::ScenarioParams p = plain();
  p.seed = 97;
  p.fault.loss_rate = 0.1;
  p.fault.seed = 777;
  p.notify_retry_cap = 4;
  return p;
}

exp::ScenarioParams zoo_faulted() {
  exp::ScenarioParams p = plain();
  p.seed = 11;
  p.mob.model = mob::ModelId::kRandomWaypoint;
  p.mob.update_s = util::Seconds{1.0};
  p.mob.speed_min = util::MetersPerSecond{0.5};
  p.mob.speed_max = util::MetersPerSecond{2.0};
  p.mob.pause_s = util::Seconds{5.0};
  p.traffic.model = traffic::ModelId::kOnOff;
  p.fault.loss_rate = 0.2;
  p.fault.seed = 31;
  p.fault.crashes.push_back({net::NodeId{5}, 20.0, 15.0});
  p.fault.crashes.push_back({net::NodeId{17}, 40.0, -1.0});
  return p;
}

/// snap_checkpoint_test's multi-flow case: a second flow runs the reverse
/// direction with blending on.
exp::RunOptions multiflow_options(const exp::ScenarioParams& params) {
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
  return options;
}

/// Digest of every snapshot of one full run plus its .result file.
std::uint64_t run_digest(const exp::ScenarioParams& params,
                         core::MobilityMode mode,
                         const exp::RunOptions& options) {
  util::Rng rng(params.seed);
  const exp::FlowInstance instance = exp::sample_instance(params, rng);
  auto run = exp::InstanceRun::create(instance, params, mode, options);
  run->set_sampler_rng_state(rng.state());
  // Each leg continues on the restored copy, so restore is pinned too.
  Fnv1a64 fnv;
  bool done = false;
  while (!done) {
    const std::string bytes = encode(*run);
    fnv.add(bytes);
    run = restore(bytes);
    done = run->advance(kEvery);
  }
  fnv.add(encode(*run));

  const std::string path = ::testing::TempDir() + "snap_golden.result";
  save_result(path, run->result());
  fnv.add(read_file(path));
  std::remove(path.c_str());
  return fnv.h;
}

constexpr std::array<core::MobilityMode, 3> kModes = {
    core::MobilityMode::kNoMobility, core::MobilityMode::kCostUnaware,
    core::MobilityMode::kInformed};

void expect_digests(const exp::ScenarioParams& params,
                    const exp::RunOptions& options,
                    const std::array<std::uint64_t, 3>& expected) {
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    SCOPED_TRACE("mode " + std::to_string(m));
    const std::uint64_t got = run_digest(params, kModes[m], options);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxull",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, expected[m]) << "digest " << hex;
  }
}

TEST(SnapGoldenBytes, CorpusSnapshotReencodesToItself) {
  const std::string bytes =
      read_file(IMOBIF_SNAP_CORPUS_DIR "/midflight_12_nodes.bin");
  ASSERT_EQ(bytes.size(), 12060u);
  EXPECT_EQ(encode(*restore(bytes)), bytes);
}

TEST(SnapGoldenBytes, Plain) {
  expect_digests(plain(), {},
                 {0xeab4ce9d303a71bcull, 0x91068fde8b500921ull,
                  0x5eff93a84fcb561full});
}

TEST(SnapGoldenBytes, LossWithRetries) {
  expect_digests(lossy_retries(), {},
                 {0x83d0f7b009803a4aull, 0x528ac25632177645ull,
                  0xc7c19c2959153b36ull});
}

TEST(SnapGoldenBytes, RandomWaypointOnOffLossCrashes) {
  expect_digests(zoo_faulted(), {},
                 {0x4a494d00661e1bdbull, 0x85373ffd4f9c99afull,
                  0x9fa719f1fc23ec07ull});
}

TEST(SnapGoldenBytes, Multiflow) {
  exp::ScenarioParams params = plain();
  params.seed = 7;
  expect_digests(params, multiflow_options(params),
                 {0xee1c06063f8df61full, 0x1d818546f6f0c18bull,
                  0x9324403ca9cba568ull});
}

}  // namespace
}  // namespace imobif::snap
