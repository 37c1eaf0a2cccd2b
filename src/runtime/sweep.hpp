// run_comparison_parallel: the one sweep driver. It replays N sampled flow
// instances under the three approaches the paper compares (Section 4,
// Figs. 5-8) across a ThreadPool, with results bit-identical for any
// worker count or completion order.
//
// The calling thread samples instance i from the i-th fork() of
// Rng(params.seed), in order, and right after each draw submits one pool
// task per mode, so a pool never waits on one thread replaying an
// instance's three runs back to back. Points are put back together in
// index order from their three futures. `InstanceRun` builds a fully
// self-contained Network per call and the exp:: entry points share no
// mutable globals, so no simulator-core changes are needed for
// parallelism.
#pragma once

#include <cstdint>
#include <vector>

#include "exp/experiments.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "runtime/checkpoint.hpp"

namespace imobif::runtime {

/// Stateless seed: splitmix64 of (base_seed + job_index). The same
/// (base, index) always gives the same seed. Its only user is
/// perfbench/lib/workloads.cpp, which derives per-variant scenario seeds.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t job_index);

/// Runs `flow_count` instances of the scenario, each under no mobility,
/// cost-unaware mobility and iMobif; deterministic in (params.seed,
/// flow_count) for any `workers`. Runs on min(max(workers, 1),
/// 3 * flow_count) pool threads. A sampler error (no routable pair) is
/// rethrown once the runs already queued have finished. With checkpointing
/// enabled, instance i's three mode runs persist as units
/// "<digest>-cmp-<i>-baseline" / "-cost_unaware" / "-informed", where
/// <digest> is 16 hex digits of snap::config_digest(params, options) (see
/// runtime/checkpoint.hpp).
std::vector<exp::ComparisonPoint> run_comparison_parallel(
    const exp::ScenarioParams& params, std::size_t flow_count,
    const exp::RunOptions& options = {}, std::size_t workers = 1,
    const CheckpointOptions& checkpoint = {});

}  // namespace imobif::runtime
