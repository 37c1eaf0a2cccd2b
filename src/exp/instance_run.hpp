// InstanceRun: one FlowInstance replay as a pausable object.
//
// InstanceRun splits a replay into construction (create), incremental
// execution (advance, optionally capped at an event count), and result
// assembly — which is what checkpointing needs: src/snap serializes a
// paused run and reconstructs it in a fresh process via create_shell + its
// restore accessors. advance() runs the flow loop of Network::run_flows()
// (same chunk length and stop test, Network::flow_loop_done) with the
// chunk bookkeeping kept as state, so it can pause mid-chunk.
//
// Layering: exp knows nothing about snap. The checkpoint hook is a plain
// callback fired at chunk boundaries (the only points where a run may be
// suspended with no chunk bookkeeping in flight); snap::Checkpointer
// installs it.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/imobif_policy.hpp"
#include "exp/instance.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "mob/driver.hpp"
#include "net/network.hpp"

namespace imobif::exp {

class InstanceRun {
 public:
  /// The flow every RunResult describes (extra_flows ride alongside).
  static constexpr net::FlowId kMainFlowId = 1;

  /// Full construction: validate, build the network, warm up, start the
  /// main flow (and options.extra_flows).
  static std::unique_ptr<InstanceRun> create(const FlowInstance& instance,
                                             const ScenarioParams& params,
                                             core::MobilityMode mode,
                                             const RunOptions& options = {});

  /// Restore-path construction: identical wiring (routing, policy, radio,
  /// nodes at their *initial* sampled positions/energies) but NO warmup,
  /// NO flow start, and NO fault-plan installation — the snapshot supplies
  /// all of that state through the restore accessors below and on the net
  /// layer. The run is unusable until snap::restore() finishes.
  static std::unique_ptr<InstanceRun> create_shell(
      const FlowInstance& instance, const ScenarioParams& params,
      core::MobilityMode mode, const RunOptions& options = {});

  /// Advances the run. With max_events == 0, runs to completion and
  /// returns true. With a cap, executes at most that many simulator
  /// events and returns whether the run finished; a capped return may
  /// pause mid-chunk and is resumed by the next call.
  bool advance(std::size_t max_events = 0);

  bool done() const { return done_; }

  /// True when the next advance() would declare the run finished without
  /// executing another event: either done() already, or the run is paused
  /// between chunks with the completion condition (horizon reached, flows
  /// complete, first death under stop_on_first_death, stall) satisfied.
  /// Unlike done(), this does not lag behind an event-capped advance that
  /// stopped exactly at the finish line — replay bisection compares it so
  /// two runs in identical states never disagree on "finished".
  bool at_completion() const;

  /// Assembles the RunResult for the main flow; meaningful once done()
  /// (callable earlier for progress inspection).
  RunResult result();

  // Accessors (snapshot encoding + tests).
  net::Network& network() { return *network_; }
  const net::Network& network() const { return *network_; }
  core::ImobifPolicy& policy() { return *policy_; }
  const core::ImobifPolicy& policy() const { return *policy_; }
  /// Background-motion driver; null unless params.mob is enabled.
  mob::MotionDriver* motion() { return motion_.get(); }
  const mob::MotionDriver* motion() const { return motion_.get(); }
  const FlowInstance& instance() const { return instance_; }
  const ScenarioParams& params() const { return params_; }
  core::MobilityMode mode() const { return mode_; }
  const RunOptions& options() const { return options_; }
  util::Joules warmup_consumed_j() const { return warmup_consumed_; }
  sim::Time flow_start() const { return flow_start_; }
  sim::Time horizon() const { return horizon_; }
  bool in_chunk() const { return in_chunk_; }
  sim::Time chunk_end() const { return chunk_end_; }

  /// State of the RNG stream that sampled this instance, captured by the
  /// sweep layer so a checkpoint records where the sampler stream stood.
  const std::optional<std::array<std::uint64_t, 4>>& sampler_rng_state()
      const {
    return sampler_rng_state_;
  }
  void set_sampler_rng_state(const std::array<std::uint64_t, 4>& state) {
    sampler_rng_state_ = state;
  }

  /// Invoked at every chunk boundary before the next chunk starts (never
  /// mid-chunk); src/snap uses it to write periodic checkpoints.
  void set_checkpoint_hook(std::function<void(InstanceRun&)> hook) {
    checkpoint_hook_ = std::move(hook);
  }

  /// Checkpoint restore: overwrites the loop bookkeeping that is not
  /// derivable from the network (src/snap only).
  void restore_run_state(util::Joules warmup_consumed, sim::Time flow_start,
                         bool in_chunk, sim::Time chunk_end, bool done);

 private:
  InstanceRun(const FlowInstance& instance, const ScenarioParams& params,
              core::MobilityMode mode, const RunOptions& options);

  void build_network();
  void compute_horizon();

  FlowInstance instance_;
  ScenarioParams params_;
  core::MobilityMode mode_;
  RunOptions options_;

  /// Owned here because the policy keeps a reference to it for the run's
  /// whole lifetime.
  // snap:derived(create_shell)
  energy::MobilityEnergyModel mobility_model_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<core::ImobifPolicy> policy_;
  std::unique_ptr<mob::MotionDriver> motion_;

  util::Joules warmup_consumed_{0.0};
  sim::Time flow_start_ = sim::Time::zero();
  sim::Time horizon_ = sim::Time::zero();
  sim::Time chunk_end_ = sim::Time::zero();
  bool in_chunk_ = false;
  bool done_ = false;

  std::optional<std::array<std::uint64_t, 4>> sampler_rng_state_;
  std::function<void(InstanceRun&)> checkpoint_hook_;
};

}  // namespace imobif::exp
