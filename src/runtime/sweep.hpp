// SweepEngine: fans independent experiment jobs out across a ThreadPool
// with deterministic per-job RNG seeding, so a sweep's results are
// bit-identical regardless of worker count or completion order.
//
// Each job's instance is sampled from a seed derived statelessly from the
// sweep's base seed and the job's index (splitmix64), and results are
// collected back in submission order. `run_instance` builds a fully
// self-contained Network per call and the exp:: entry points share no
// mutable globals, so no simulator-core changes are needed for
// parallelism.
#pragma once

#include <cstdint>
#include <vector>

#include "exp/experiments.hpp"
#include "exp/instance.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "runtime/checkpoint.hpp"
#include "util/units.hpp"

namespace imobif::runtime {

/// Stateless per-job seed: splitmix64 of (base_seed + job_index). Job i
/// gets the same seed no matter how many workers run the sweep or in what
/// order jobs complete.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t job_index);

/// One unit of sweep work: sample an instance under `params` (from the
/// job's derived seed) and replay it under `mode`.
struct SweepJob {
  exp::ScenarioParams params;
  core::MobilityMode mode = core::MobilityMode::kInformed;
  exp::RunOptions options;
};

struct SweepOutcome {
  std::uint64_t seed = 0;  ///< derived seed the instance was sampled with
  util::Bits flow_bits{0.0};
  std::size_t hops = 0;
  exp::RunResult result;
};

class SweepEngine {
 public:
  /// `workers` == 1 runs jobs inline (no threads); > 1 uses a ThreadPool.
  explicit SweepEngine(std::size_t workers);

  std::size_t workers() const { return workers_; }

  /// Runs every job; outcome i corresponds to jobs[i] and was sampled from
  /// derive_seed(base_seed, i). With checkpointing enabled, job i persists
  /// under unit name "job-<i>" (see runtime/checkpoint.hpp); the outcomes
  /// are bit-identical to an uncheckpointed run.
  std::vector<SweepOutcome> run(const std::vector<SweepJob>& jobs,
                                std::uint64_t base_seed,
                                const CheckpointOptions& checkpoint = {}) const;

 private:
  std::size_t workers_;
};

/// Parallel equivalent of exp::run_comparison: same (params.seed,
/// flow_count) -> bit-identical ComparisonPoints for any worker count,
/// including the sequential implementation's fork chain. With
/// checkpointing enabled, instance i's three mode runs persist as units
/// "cmp-<i>-baseline" / "cmp-<i>-cost_unaware" / "cmp-<i>-informed".
std::vector<exp::ComparisonPoint> run_comparison_parallel(
    const exp::ScenarioParams& params, std::size_t flow_count,
    const exp::RunOptions& options = {}, std::size_t workers = 1,
    const CheckpointOptions& checkpoint = {});

}  // namespace imobif::runtime
