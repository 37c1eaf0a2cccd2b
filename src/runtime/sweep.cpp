#include "runtime/sweep.hpp"

#include <array>
#include <future>
#include <string>
#include <utility>

#include "runtime/thread_pool.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace imobif::runtime {

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t job_index) {
  std::uint64_t state = base_seed + job_index;
  return util::splitmix64(state);
}

SweepEngine::SweepEngine(std::size_t workers)
    : workers_(workers == 0 ? 1 : workers) {
  IMOBIF_ASSERT(workers_ >= 1, "sweep engine needs at least one worker");
}

namespace {

/// One mode replay of a sampled instance, routed through the checkpoint
/// layer when enabled; otherwise the legacy direct path.
exp::RunResult run_one_mode(const exp::FlowInstance& instance,
                            const exp::ScenarioParams& params,
                            core::MobilityMode mode,
                            const exp::RunOptions& options,
                            const std::array<std::uint64_t, 4>& sampler_state,
                            const CheckpointOptions& checkpoint,
                            const std::string& unit) {
  if (!checkpoint.enabled()) {
    return exp::run_instance(instance, params, mode, options);
  }
  return run_checkpointed_unit(checkpoint, unit, [&] {
    auto run = exp::InstanceRun::create(instance, params, mode, options);
    run->set_sampler_rng_state(sampler_state);
    return run;
  });
}

SweepOutcome run_sweep_job(const SweepJob& job, std::uint64_t seed,
                           const CheckpointOptions& checkpoint,
                           const std::string& unit) {
  util::Rng rng(seed);
  const exp::FlowInstance instance = exp::sample_instance(job.params, rng);
  SweepOutcome outcome;
  outcome.seed = seed;
  outcome.flow_bits = instance.flow_bits;
  outcome.hops = instance.initial_path.size() - 1;
  outcome.result = run_one_mode(instance, job.params, job.mode, job.options,
                                rng.state(), checkpoint, unit);
  return outcome;
}

exp::ComparisonPoint run_comparison_point(const exp::ScenarioParams& params,
                                          const exp::RunOptions& options,
                                          util::Rng rng,
                                          const CheckpointOptions& checkpoint,
                                          const std::string& unit_prefix) {
  const exp::FlowInstance instance = exp::sample_instance(params, rng);
  exp::ComparisonPoint point;
  point.flow_bits = instance.flow_bits;
  point.hops = instance.initial_path.size() - 1;
  point.baseline =
      run_one_mode(instance, params, core::MobilityMode::kNoMobility, options,
                   rng.state(), checkpoint, unit_prefix + "-baseline");
  point.cost_unaware =
      run_one_mode(instance, params, core::MobilityMode::kCostUnaware, options,
                   rng.state(), checkpoint, unit_prefix + "-cost_unaware");
  point.informed =
      run_one_mode(instance, params, core::MobilityMode::kInformed, options,
                   rng.state(), checkpoint, unit_prefix + "-informed");
  return point;
}

std::string job_unit(std::size_t index) {
  return "job-" + std::to_string(index);
}

}  // namespace

std::vector<SweepOutcome> SweepEngine::run(
    const std::vector<SweepJob>& jobs, std::uint64_t base_seed,
    const CheckpointOptions& checkpoint) const {
  for (const SweepJob& job : jobs) job.params.validate();
  prepare_checkpoint_dir(checkpoint);

  std::vector<SweepOutcome> outcomes(jobs.size());
  if (workers_ <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      outcomes[i] = run_sweep_job(jobs[i], derive_seed(base_seed, i),
                                  checkpoint, job_unit(i));
    }
    return outcomes;
  }

  ThreadPool pool(workers_);
  std::vector<std::future<SweepOutcome>> futures;
  futures.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::uint64_t seed = derive_seed(base_seed, i);
    futures.push_back(pool.submit([&job = jobs[i], seed, &checkpoint, i] {
      return run_sweep_job(job, seed, checkpoint, job_unit(i));
    }));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    outcomes[i] = futures[i].get();  // ordered collection
    // Reproducibility contract: the seed a job ran with must be a pure
    // function of (base_seed, job index) — never of scheduling, worker
    // count, or completion order.
    IMOBIF_ASSERT(outcomes[i].seed == derive_seed(base_seed, i),
                  "sweep outcome seed depends on something other than "
                  "base seed and job index");
  }
  return outcomes;
}

std::vector<exp::ComparisonPoint> run_comparison_parallel(
    const exp::ScenarioParams& params, std::size_t flow_count,
    const exp::RunOptions& options, std::size_t workers,
    const CheckpointOptions& checkpoint) {
  params.validate();
  prepare_checkpoint_dir(checkpoint);

  // Reproduce the sequential fork chain exactly: instance i's generator is
  // the i-th fork of Rng(params.seed), drawn here in order on one thread.
  util::Rng root(params.seed);
  std::vector<util::Rng> instance_rngs;
  instance_rngs.reserve(flow_count);
  for (std::size_t i = 0; i < flow_count; ++i) {
    instance_rngs.push_back(root.fork());
  }

  std::vector<exp::ComparisonPoint> points(flow_count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < flow_count; ++i) {
      points[i] = run_comparison_point(params, options, instance_rngs[i],
                                       checkpoint, "cmp-" + std::to_string(i));
    }
    return points;
  }

  ThreadPool pool(workers);
  std::vector<std::future<exp::ComparisonPoint>> futures;
  futures.reserve(flow_count);
  for (std::size_t i = 0; i < flow_count; ++i) {
    futures.push_back(pool.submit(
        [&params, &options, rng = instance_rngs[i], &checkpoint, i] {
          return run_comparison_point(params, options, rng, checkpoint,
                                      "cmp-" + std::to_string(i));
        }));
  }
  for (std::size_t i = 0; i < flow_count; ++i) {
    points[i] = futures[i].get();
  }
  return points;
}

}  // namespace imobif::runtime
