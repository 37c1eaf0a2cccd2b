// Crash-resumable sweeps: a checkpointed run_comparison_parallel is
// bit-identical to an uncheckpointed one, --resume short-circuits from
// .result files, picks a mid-flight .ckpt back up exactly, and the whole
// contract holds at any worker count.
#include "runtime/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exp/instance.hpp"
#include "exp/instance_run.hpp"
#include "runtime/sweep.hpp"
#include "snap/result_io.hpp"
#include "snap/snapshot.hpp"
#include "util/rng.hpp"

namespace imobif::runtime {
namespace {

exp::ScenarioParams sweep_params(std::uint64_t seed) {
  exp::ScenarioParams p;
  p.node_count = 60;
  p.area_m = util::Meters{800.0};
  p.mean_flow_bits = util::Bits{40.0 * 1024.0 * 8.0};
  p.seed = seed;
  return p;
}

std::string json(const exp::RunResult& result) {
  return snap::result_to_json(result).dump(2);
}

/// Fresh scratch directory under the test temp root.
std::filesystem::path scratch_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

const char* const kModeUnits[] = {"baseline", "cost_unaware", "informed"};

/// The digest prefix ("<16 hex digits>-") of the unit files in `dir`,
/// all of which must come from one sweep.
std::string unit_prefix_in(const std::filesystem::path& dir) {
  std::string prefix;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    const std::size_t cmp = name.find("cmp-");
    EXPECT_EQ(cmp, 17u) << name;
    if (cmp == std::string::npos) continue;
    if (prefix.empty()) prefix = name.substr(0, cmp);
    EXPECT_EQ(name.substr(0, cmp), prefix) << name;
  }
  return prefix;
}

TEST(RuntimeCheckpoint, CheckpointedSweepMatchesPlainSweep) {
  const exp::ScenarioParams params = sweep_params(11);
  const std::size_t kInstances = 3;
  const std::vector<exp::ComparisonPoint> plain =
      run_comparison_parallel(params, kInstances, {}, 2);

  const auto dir = scratch_dir("rt_ckpt_plain");
  CheckpointOptions checkpoint;
  checkpoint.dir = dir.string();
  checkpoint.every_sim_s = 15.0;
  const std::vector<exp::ComparisonPoint> checked =
      run_comparison_parallel(params, kInstances, {}, 2, checkpoint);

  // Unit names are how a resume finds its files: a build that names them
  // differently recomputes every unit of an earlier sweep.
  const std::string prefix = unit_prefix_in(dir);
  ASSERT_EQ(prefix, "9d8481e4a676c9b8-");
  ASSERT_EQ(plain.size(), checked.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(json(plain[i].baseline), json(checked[i].baseline));
    EXPECT_EQ(json(plain[i].cost_unaware), json(checked[i].cost_unaware));
    EXPECT_EQ(json(plain[i].informed), json(checked[i].informed));
    for (const char* mode : kModeUnits) {
      const std::string stem =
          prefix + "cmp-" + std::to_string(i) + "-" + mode;
      EXPECT_TRUE(std::filesystem::exists(dir / (stem + ".result")));
      // Finished units keep only their .result.
      EXPECT_FALSE(std::filesystem::exists(dir / (stem + ".ckpt")));
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(RuntimeCheckpoint, ResumePicksUpMidFlightCheckpoint) {
  // A long flow, so that 1200 events stop the informed run mid-flight.
  exp::ScenarioParams params = sweep_params(31);
  params.mean_flow_bits *= 4.0;
  const std::vector<exp::ComparisonPoint> reference =
      run_comparison_parallel(params, 1);

  // Simulate a kill: run instance 0's informed unit partway by hand, from
  // the first fork of Rng(seed), and leave only its .ckpt behind, exactly
  // as a SIGKILLed sweep would. A finished sweep in the directory names
  // the unit files; its informed .result goes, so the .ckpt is all that
  // is left of that unit.
  const auto dir = scratch_dir("rt_ckpt_kill");
  CheckpointOptions checkpoint;
  checkpoint.dir = dir.string();
  (void)run_comparison_parallel(params, 1, {}, 1, checkpoint);
  const std::string prefix = unit_prefix_in(dir);
  ASSERT_TRUE(
      std::filesystem::remove(dir / (prefix + "cmp-0-informed.result")));
  const std::filesystem::path ckpt = dir / (prefix + "cmp-0-informed.ckpt");
  {
    util::Rng rng = util::Rng(params.seed).fork();
    const exp::FlowInstance instance = exp::sample_instance(params, rng);
    auto run = exp::InstanceRun::create(instance, params,
                                        core::MobilityMode::kInformed);
    run->set_sampler_rng_state(rng.state());
    run->advance(1200);
    ASSERT_FALSE(run->done());
    snap::save(*run, ckpt.string());
  }

  checkpoint.resume = true;
  const std::vector<exp::ComparisonPoint> resumed =
      run_comparison_parallel(params, 1, {}, 1, checkpoint);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(json(resumed[0].informed), json(reference[0].informed));
  EXPECT_EQ(json(resumed[0].baseline), json(reference[0].baseline));
  EXPECT_FALSE(std::filesystem::exists(ckpt));  // consumed, then removed
  std::filesystem::remove_all(dir);
}

TEST(RuntimeCheckpoint, ComparisonSweepResumesIdenticallyAtAnyWorkerCount) {
  const exp::ScenarioParams params = sweep_params(41);
  const std::vector<exp::ComparisonPoint> reference =
      run_comparison_parallel(params, 2);

  const auto dir = scratch_dir("rt_ckpt_cmp");
  CheckpointOptions checkpoint;
  checkpoint.dir = dir.string();
  const std::vector<exp::ComparisonPoint> first =
      run_comparison_parallel(params, 2, {}, 1, checkpoint);
  // Per-unit files use the <digest>-cmp-<i>-<mode> naming.
  const std::string prefix = unit_prefix_in(dir);
  EXPECT_TRUE(
      std::filesystem::exists(dir / (prefix + "cmp-0-baseline.result")));
  EXPECT_TRUE(
      std::filesystem::exists(dir / (prefix + "cmp-1-informed.result")));

  checkpoint.resume = true;
  const std::vector<exp::ComparisonPoint> resumed =
      run_comparison_parallel(params, 2, {}, 4, checkpoint);

  ASSERT_EQ(reference.size(), resumed.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(json(reference[i].baseline), json(first[i].baseline));
    EXPECT_EQ(json(reference[i].baseline), json(resumed[i].baseline));
    EXPECT_EQ(json(reference[i].cost_unaware), json(resumed[i].cost_unaware));
    EXPECT_EQ(json(reference[i].informed), json(resumed[i].informed));
  }
  std::filesystem::remove_all(dir);
}

TEST(RuntimeCheckpoint, DigestSeparatesSweepsSharingADirectory) {
  // Sweeps with different inputs that share a directory (bench panels)
  // never read each other's unit files: a resume of the second sweep
  // finds nothing of its own, runs fresh and stays correct.
  const exp::ScenarioParams first = sweep_params(51);
  exp::ScenarioParams second = sweep_params(51);
  second.mean_flow_bits *= 4.0;

  const std::vector<exp::ComparisonPoint> ref_first =
      run_comparison_parallel(first, 1);
  const std::vector<exp::ComparisonPoint> ref_second =
      run_comparison_parallel(second, 1);

  const auto dir = scratch_dir("rt_ckpt_digest");
  CheckpointOptions checkpoint;
  checkpoint.dir = dir.string();
  (void)run_comparison_parallel(first, 1, {}, 1, checkpoint);
  const std::string first_prefix = unit_prefix_in(dir);

  checkpoint.resume = true;
  const std::vector<exp::ComparisonPoint> resumed_second =
      run_comparison_parallel(second, 1, {}, 1, checkpoint);
  ASSERT_EQ(resumed_second.size(), ref_second.size());
  EXPECT_EQ(json(resumed_second[0].informed), json(ref_second[0].informed));
  EXPECT_NE(json(ref_first[0].informed), json(ref_second[0].informed));

  // Different run options are different inputs too.
  exp::RunOptions lifetime;
  lifetime.stop_on_first_death = true;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  checkpoint.resume = false;
  (void)run_comparison_parallel(first, 1, lifetime, 1, checkpoint);
  EXPECT_NE(unit_prefix_in(dir), first_prefix);
  std::filesystem::remove_all(dir);
}

TEST(RuntimeCheckpoint, ConfigDigestCoversEveryRunOptionField) {
  // Each field of RunOptions and of an extra FlowSpec shapes a unit's
  // result, so changing any one of them must rename the sweep's units.
  const exp::ScenarioParams params = sweep_params(71);
  exp::RunOptions base;
  net::FlowSpec spec;
  spec.id = 2;
  spec.source = 3;
  spec.destination = 4;
  spec.length_bits = util::Bits{8192.0 * 4.0};
  base.extra_flows.push_back(spec);
  const std::uint64_t digest = snap::config_digest(params, base);

  using Edit = std::function<void(exp::RunOptions&)>;
  const std::vector<std::pair<const char*, Edit>> edits = {
      {"stop_on_first_death",
       [](exp::RunOptions& o) { o.stop_on_first_death = true; }},
      {"horizon_factor", [](exp::RunOptions& o) { o.horizon_factor = 5.0; }},
      {"horizon_slack_s",
       [](exp::RunOptions& o) { o.horizon_slack_s = util::Seconds{60.0}; }},
      {"multi_flow_blending",
       [](exp::RunOptions& o) { o.multi_flow_blending = true; }},
      {"extra_flows", [](exp::RunOptions& o) { o.extra_flows.clear(); }},
      {"id", [](exp::RunOptions& o) { o.extra_flows[0].id = 5; }},
      {"source", [](exp::RunOptions& o) { o.extra_flows[0].source = 5; }},
      {"destination",
       [](exp::RunOptions& o) { o.extra_flows[0].destination = 5; }},
      {"length_bits",
       [](exp::RunOptions& o) { o.extra_flows[0].length_bits *= 2.0; }},
      {"packet_bits",
       [](exp::RunOptions& o) { o.extra_flows[0].packet_bits *= 2.0; }},
      {"rate_bps",
       [](exp::RunOptions& o) { o.extra_flows[0].rate_bps *= 2.0; }},
      {"strategy",
       [](exp::RunOptions& o) {
         o.extra_flows[0].strategy = net::StrategyId::kMaxLifetime;
       }},
      {"initially_enabled",
       [](exp::RunOptions& o) { o.extra_flows[0].initially_enabled = true; }},
      {"length_estimate_factor",
       [](exp::RunOptions& o) {
         o.extra_flows[0].length_estimate_factor = 0.5;
       }},
  };
  for (const auto& [field, edit] : edits) {
    exp::RunOptions changed = base;
    edit(changed);
    EXPECT_NE(snap::config_digest(params, changed), digest) << field;
  }
  EXPECT_NE(snap::config_digest(sweep_params(72), base), digest);
  EXPECT_EQ(snap::config_digest(sweep_params(71), base), digest);
}

TEST(RuntimeCheckpoint, ResumeFromMixedUnitFilesEqualsAFreshSweep) {
  // A killed sweep leaves each instance with any subset of its three
  // units finished, since every unit is its own pool task. Resuming must
  // reuse exactly those and run the rest.
  const exp::ScenarioParams params = sweep_params(81);
  const std::vector<exp::ComparisonPoint> fresh =
      run_comparison_parallel(params, 2);

  const auto dir = scratch_dir("rt_ckpt_mixed");
  CheckpointOptions checkpoint;
  checkpoint.dir = dir.string();
  (void)run_comparison_parallel(params, 2, {}, 1, checkpoint);
  const std::string prefix = unit_prefix_in(dir);
  // Instance 0 keeps only its informed unit; instance 1 keeps only its
  // baseline and cost_unaware units.
  for (const char* unit :
       {"cmp-0-baseline", "cmp-0-cost_unaware", "cmp-1-informed"}) {
    ASSERT_TRUE(std::filesystem::remove(dir / (prefix + unit + ".result")))
        << unit;
  }

  checkpoint.resume = true;
  const std::vector<exp::ComparisonPoint> resumed =
      run_comparison_parallel(params, 2, {}, 4, checkpoint);
  ASSERT_EQ(resumed.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(resumed[i].flow_bits, fresh[i].flow_bits);
    EXPECT_EQ(resumed[i].hops, fresh[i].hops);
    EXPECT_EQ(json(resumed[i].baseline), json(fresh[i].baseline));
    EXPECT_EQ(json(resumed[i].cost_unaware), json(fresh[i].cost_unaware));
    EXPECT_EQ(json(resumed[i].informed), json(fresh[i].informed));
  }
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".result") << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 6u);  // one .result per unit
  for (std::size_t i = 0; i < 2; ++i) {
    for (const char* mode : kModeUnits) {
      EXPECT_TRUE(std::filesystem::exists(
          dir / (prefix + "cmp-" + std::to_string(i) + "-" + mode +
                 ".result")));
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(RuntimeCheckpoint, ResumeWithAnotherSeedEqualsAFreshRun) {
  // Unit i of every seed shares the name cmp-<i>-<mode>; only the digest
  // of the scenario tells them apart, so a resume under a new seed must
  // not return the old seed's results.
  const exp::ScenarioParams old_seed = sweep_params(61);
  const exp::ScenarioParams new_seed = sweep_params(62);
  const std::vector<exp::ComparisonPoint> fresh =
      run_comparison_parallel(new_seed, 2);

  const auto dir = scratch_dir("rt_ckpt_reseed");
  CheckpointOptions checkpoint;
  checkpoint.dir = dir.string();
  (void)run_comparison_parallel(old_seed, 2, {}, 1, checkpoint);
  checkpoint.resume = true;
  const std::vector<exp::ComparisonPoint> resumed =
      run_comparison_parallel(new_seed, 2, {}, 1, checkpoint);

  ASSERT_EQ(resumed.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(json(resumed[i].baseline), json(fresh[i].baseline));
    EXPECT_EQ(json(resumed[i].cost_unaware), json(fresh[i].cost_unaware));
    EXPECT_EQ(json(resumed[i].informed), json(fresh[i].informed));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace imobif::runtime
