#include "runtime/sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <string>

#include "exp/instance.hpp"
#include "exp/instance_run.hpp"
#include "exp/scenario_io.hpp"
#include "runtime/thread_pool.hpp"
#include "snap/checkpointer.hpp"
#include "snap/result_io.hpp"
#include "snap/snapshot.hpp"
#include "snap/state_hash.hpp"
#include "util/rng.hpp"

namespace imobif::runtime {

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t job_index) {
  std::uint64_t state = base_seed + job_index;
  return util::splitmix64(state);
}

namespace {

/// The unit-file prefix of a sweep: a 64-bit digest, in hex, of every
/// input that shapes a unit's result besides its instance index, namely
/// the scenario text and the run options. Sweeps with different inputs
/// never share files; sweeps with equal inputs do, which is correct
/// because runs are deterministic.
std::string unit_prefix(const exp::ScenarioParams& params,
                        const exp::RunOptions& options) {
  snap::StateHash h;
  h.str(exp::to_config_string(params));
  h.boolean(options.stop_on_first_death);
  h.f64(options.horizon_factor);
  h.f64(options.horizon_slack_s.value());
  h.boolean(options.multi_flow_blending);
  h.u64(options.extra_flows.size());
  for (const net::FlowSpec& spec : options.extra_flows) {
    h.u64(spec.id);
    h.u64(spec.source);
    h.u64(spec.destination);
    h.f64(spec.length_bits.value());
    h.f64(spec.packet_bits.value());
    h.f64(spec.rate_bps.value());
    h.u8(static_cast<std::uint8_t>(spec.strategy));
    h.boolean(spec.initially_enabled);
    h.f64(spec.length_estimate_factor);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h.digest()));
  return std::string(hex) + "-";
}

/// Runs one named unit to completion. With checkpointing disabled it runs
/// `make_fresh()`. Otherwise it short-circuits from <unit>.result, resumes
/// from <unit>.ckpt, or starts from `make_fresh()`; checkpoints every
/// `every_sim_s` while running; and on completion atomically writes the
/// result file and removes the stale checkpoint.
exp::RunResult run_unit(
    const CheckpointOptions& options, const std::string& unit,
    const std::function<std::unique_ptr<exp::InstanceRun>()>& make_fresh) {
  if (!options.enabled()) {
    auto run = make_fresh();
    run->advance();
    return run->result();
  }
  const std::filesystem::path dir(options.dir);
  const std::string result_path = (dir / (unit + ".result")).string();
  const std::string ckpt_path = (dir / (unit + ".ckpt")).string();

  if (options.resume && std::filesystem::exists(result_path)) {
    return snap::load_result(result_path);
  }

  std::unique_ptr<exp::InstanceRun> run;
  if (options.resume && std::filesystem::exists(ckpt_path)) {
    run = snap::restore_file(ckpt_path);
  } else {
    run = make_fresh();
  }

  snap::Checkpointer checkpointer(ckpt_path, options.every_sim_s);
  checkpointer.install(*run);
  run->advance();

  const exp::RunResult result = run->result();
  snap::save_result(result_path, result);
  // The .result supersedes the mid-flight snapshot; a best-effort removal
  // keeps the directory to one file per finished unit.
  std::error_code ec;
  std::filesystem::remove(ckpt_path, ec);
  return result;
}

exp::ComparisonPoint run_comparison_point(const exp::ScenarioParams& params,
                                          const exp::RunOptions& options,
                                          util::Rng rng,
                                          const CheckpointOptions& checkpoint,
                                          const std::string& sweep_prefix,
                                          std::size_t index) {
  const exp::FlowInstance instance = exp::sample_instance(params, rng);
  const std::string prefix =
      sweep_prefix + "cmp-" + std::to_string(index) + "-";
  const auto run_mode = [&](core::MobilityMode mode, const char* name) {
    return run_unit(checkpoint, prefix + name, [&] {
      auto run = exp::InstanceRun::create(instance, params, mode, options);
      run->set_sampler_rng_state(rng.state());
      return run;
    });
  };
  exp::ComparisonPoint point;
  point.flow_bits = instance.flow_bits;
  point.hops = instance.initial_path.size() - 1;
  point.baseline = run_mode(core::MobilityMode::kNoMobility, "baseline");
  point.cost_unaware = run_mode(core::MobilityMode::kCostUnaware,
                                "cost_unaware");
  point.informed = run_mode(core::MobilityMode::kInformed, "informed");
  return point;
}

}  // namespace

std::vector<exp::ComparisonPoint> run_comparison_parallel(
    const exp::ScenarioParams& params, std::size_t flow_count,
    const exp::RunOptions& options, std::size_t workers,
    const CheckpointOptions& checkpoint) {
  params.validate();
  std::string sweep_prefix;
  if (checkpoint.enabled()) {
    std::filesystem::create_directories(checkpoint.dir);
    sweep_prefix = unit_prefix(params, options);
  }

  // Instance i's generator is the i-th fork of Rng(params.seed), drawn
  // here in submission order on this thread.
  util::Rng root(params.seed);
  ThreadPool pool(std::min(std::max<std::size_t>(workers, 1), flow_count));
  std::vector<std::future<exp::ComparisonPoint>> futures;
  futures.reserve(flow_count);
  for (std::size_t i = 0; i < flow_count; ++i) {
    futures.push_back(
        pool.submit([&params, &options, rng = root.fork(), &checkpoint,
                     &sweep_prefix, i] {
          return run_comparison_point(params, options, rng, checkpoint,
                                      sweep_prefix, i);
        }));
  }
  std::vector<exp::ComparisonPoint> points;
  points.reserve(flow_count);
  for (auto& future : futures) points.push_back(future.get());
  return points;
}

}  // namespace imobif::runtime
