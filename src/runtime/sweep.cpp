#include "runtime/sweep.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <utility>

#include "exp/instance.hpp"
#include "exp/instance_run.hpp"
#include "runtime/thread_pool.hpp"
#include "snap/checkpointer.hpp"
#include "snap/result_io.hpp"
#include "snap/snapshot.hpp"
#include "util/rng.hpp"

namespace imobif::runtime {

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t job_index) {
  std::uint64_t state = base_seed + job_index;
  return util::splitmix64(state);
}

namespace {

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

/// The three runs of an instance, in submission order: the mobility runs
/// take longest, so they start first.
constexpr std::pair<core::MobilityMode, const char*> kModes[] = {
    {core::MobilityMode::kInformed, "informed"},
    {core::MobilityMode::kCostUnaware, "cost_unaware"},
    {core::MobilityMode::kNoMobility, "baseline"}};

/// A sampled instance and the state of its RNG stream after the draw.
struct Sampled {
  exp::FlowInstance instance;
  std::array<std::uint64_t, 4> rng_state;
};

}  // namespace

std::vector<exp::ComparisonPoint> run_comparison_parallel(
    const exp::ScenarioParams& params, std::size_t flow_count,
    const exp::RunOptions& options, std::size_t workers,
    const CheckpointOptions& checkpoint) {
  params.validate();
  std::string sweep_prefix;
  if (checkpoint.enabled()) {
    std::filesystem::create_directories(checkpoint.dir);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      snap::config_digest(params, options)));
    sweep_prefix = std::string(hex) + "-";
  }

  // Declared before the pool, whose destructor lets every queued task
  // finish, so no task outlives what it reads, also when a draw throws.
  // Reserved up front: tasks hold references into it.
  std::vector<Sampled> sampled;
  sampled.reserve(flow_count);
  ThreadPool pool(
      std::min(std::max<std::size_t>(workers, 1), 3 * flow_count));
  std::vector<std::array<std::future<exp::RunResult>, 3>> futures(flow_count);
  // Instance i's generator is the i-th fork of Rng(params.seed), drawn
  // here in order on this thread; its three runs start as soon as it is.
  util::Rng root(params.seed);
  for (std::size_t i = 0; i < flow_count; ++i) {
    util::Rng rng = root.fork();
    exp::FlowInstance instance = exp::sample_instance(params, rng);
    const Sampled* sample =
        &sampled.emplace_back(Sampled{std::move(instance), rng.state()});
    for (std::size_t m = 0; m < 3; ++m) {
      const core::MobilityMode mode = kModes[m].first;
      std::string unit = sweep_prefix + "cmp-" + std::to_string(i) + "-" +
                         kModes[m].second;
      futures[i][m] = pool.submit([&params, &options, &checkpoint, sample,
                                   mode, unit = std::move(unit)] {
        return run_unit(checkpoint, unit, [&] {
          auto run =
              exp::InstanceRun::create(sample->instance, params, mode, options);
          run->set_sampler_rng_state(sample->rng_state);
          return run;
        });
      });
    }
  }
  std::vector<exp::ComparisonPoint> points(flow_count);
  for (std::size_t i = 0; i < flow_count; ++i) {
    points[i].flow_bits = sampled[i].instance.flow_bits;
    points[i].hops = sampled[i].instance.initial_path.size() - 1;
    points[i].baseline = futures[i][2].get();
    points[i].cost_unaware = futures[i][1].get();
    points[i].informed = futures[i][0].get();
  }
  return points;
}

}  // namespace imobif::runtime
