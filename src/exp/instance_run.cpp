#include "exp/instance_run.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/imobif.hpp"

namespace imobif::exp {

InstanceRun::InstanceRun(const FlowInstance& instance,
                         const ScenarioParams& params, core::MobilityMode mode,
                         const RunOptions& options)
    : instance_(instance),
      params_(params),
      mode_(mode),
      options_(options),
      mobility_model_(params.mobility) {}

void InstanceRun::build_network() {
  net::NetworkConfig config;
  config.medium.comm_range_m = params_.comm_range_m.value();
  config.node.hello_interval =
      sim::Time::from_seconds(params_.hello_interval_s.value());
  config.node.neighbor_timeout =
      sim::Time::from_seconds(4.5 * params_.hello_interval_s.value());
  config.node.charge_hello_energy = params_.charge_hello_energy;
  config.node.position_error_m = params_.position_error_m;
  config.node.notify_retry_cap = params_.notify_retry_cap;
  config.node.notify_retry_timeout =
      sim::Time::from_seconds(params_.notify_retry_timeout_s.value());
  config.radio = params_.radio;
  config.traffic = params_.traffic;
  config.traffic_seed = instance_.traffic_seed;

  network_ = std::make_unique<net::Network>(config);
  for (std::size_t i = 0; i < instance_.positions.size(); ++i) {
    network_->add_node(instance_.positions[i], instance_.energies[i]);
  }
  if (params_.line_bias_weight > 0.0) {
    network_->set_routing(std::make_unique<net::LineBiasedGreedyRouting>(
        network_->medium(), params_.line_bias_weight));
  } else {
    network_->set_routing(
        std::make_unique<net::GreedyRouting>(network_->medium()));
  }

  policy_ = core::make_default_policy(network_->radio(), mobility_model_,
                                      mode_, params_.alpha_prime);
  policy_->set_multi_flow_blending(options_.multi_flow_blending ||
                                   params_.multi_flow_blending);
  policy_->set_cap_bits(params_.cap_bits);
  policy_->set_estimator(params_.paper_local_estimator
                             ? core::BenefitEstimator::kPaperLocal
                             : core::BenefitEstimator::kHopReceiver);
  policy_->set_notification_min_gap(params_.notification_min_gap);
  if (params_.recruit_margin > 0.0) {
    policy_->enable_recruitment(params_.recruit_margin);
  }
  if (params_.exact_lifetime_split) {
    policy_->register_strategy(
        std::make_unique<core::MaxLifetimeStrategy>(params_.radio));
  }
  network_->set_policy(policy_.get());
  network_->set_stop_on_first_death(options_.stop_on_first_death);

  if (params_.mob.enabled()) {
    // Construct only — create() starts the tick; create_shell leaves it to
    // the snapshot restore, which re-arms the pending tick event.
    motion_ = std::make_unique<mob::MotionDriver>(
        *network_, params_.mob, instance_.mobility_seed, params_.area_m,
        util::JoulesPerMeter{params_.mobility.k});
  }
}

void InstanceRun::compute_horizon() {
  const util::Seconds ideal_duration = instance_.flow_bits / params_.rate_bps;
  const util::Seconds horizon_s =
      ideal_duration * options_.horizon_factor + options_.horizon_slack_s;
  // Flow lengths and options can come from files (a scenario, a snapshot):
  // keep the horizon representable in ticks. Written so that NaN fails.
  constexpr double kMaxHorizonS = 1e12;  // ~31,700 years
  if (!(horizon_s.value() >= 0.0 && horizon_s.value() <= kMaxHorizonS)) {
    throw std::invalid_argument("InstanceRun: flow horizon of " +
                                std::to_string(horizon_s.value()) +
                                " s is out of range");
  }
  horizon_ = flow_start_ + sim::Time::from_seconds(horizon_s.value());
}

std::unique_ptr<InstanceRun> InstanceRun::create(const FlowInstance& instance,
                                                 const ScenarioParams& params,
                                                 core::MobilityMode mode,
                                                 const RunOptions& options) {
  params.validate();
  std::unique_ptr<InstanceRun> run(
      new InstanceRun(instance, params, mode, options));
  run->build_network();
  net::Network& network = *run->network_;
  network.medium().install_fault_plan(params.fault);

  // Ambient motion runs from t = 0, like fault schedules: nodes drift
  // during warmup too, so neighbor tables form over the moving topology.
  if (run->motion_) run->motion_->start();
  network.warmup(params.warmup_s);
  run->warmup_consumed_ = network.total_consumed_energy();
  run->flow_start_ = network.simulator().now();

  net::FlowSpec spec;
  spec.id = kMainFlowId;
  spec.source = instance.source;
  spec.destination = instance.destination;
  spec.length_bits = instance.flow_bits;
  spec.packet_bits = params.packet_bits;
  spec.rate_bps = params.rate_bps;
  spec.strategy = params.strategy;
  // Cost-unaware mobility moves from the first packet on; iMobif starts
  // disabled (paper Section 4) and the baseline never moves at all.
  spec.initially_enabled = (mode == core::MobilityMode::kCostUnaware);
  spec.length_estimate_factor = params.length_estimate_factor;
  network.start_flow(spec);
  for (const net::FlowSpec& extra : options.extra_flows) {
    network.start_flow(extra);
  }

  run->compute_horizon();
  // Stall detection counts from the flow start, as in run_flows().
  network.restore_last_progress(run->flow_start_);
  return run;
}

std::unique_ptr<InstanceRun> InstanceRun::create_shell(
    const FlowInstance& instance, const ScenarioParams& params,
    core::MobilityMode mode, const RunOptions& options) {
  params.validate();
  std::unique_ptr<InstanceRun> run(
      new InstanceRun(instance, params, mode, options));
  run->build_network();
  return run;
}

void InstanceRun::restore_run_state(util::Joules warmup_consumed,
                                    sim::Time flow_start, bool in_chunk,
                                    sim::Time chunk_end, bool done) {
  warmup_consumed_ = warmup_consumed;
  flow_start_ = flow_start;
  in_chunk_ = in_chunk;
  chunk_end_ = chunk_end;
  done_ = done;
  compute_horizon();
}

bool InstanceRun::at_completion() const {
  if (done_) return true;
  if (in_chunk_) return false;
  return network_->flow_loop_done(horizon_);
}

bool InstanceRun::advance(std::size_t max_events) {
  if (done_) return true;
  sim::Simulator& sim = network_->simulator();
  std::size_t remaining = max_events;
  for (;;) {
    if (!in_chunk_) {
      if (at_completion()) {
        done_ = true;
        return true;
      }
      if (checkpoint_hook_) checkpoint_hook_(*this);
      chunk_end_ = std::min(horizon_, sim.now() + net::Network::kFlowChunk);
      in_chunk_ = true;
    }
    const std::size_t executed = sim.run(chunk_end_, remaining);
    if (max_events != 0) {
      remaining = executed >= remaining ? 0 : remaining - executed;
    }
    // The chunk is over when the simulator stopped itself (completion /
    // first death), reached the chunk horizon, or drained the queue; an
    // event-capped return with none of those is a mid-chunk pause.
    const bool chunk_over = sim.stop_requested() ||
                            sim.now() >= chunk_end_ ||
                            sim.pending_events() == 0;
    if (!chunk_over) return false;
    in_chunk_ = false;
    if (sim.pending_events() == 0) {
      done_ = true;
      return true;
    }
    if (max_events != 0 && remaining == 0) return false;
  }
}

RunResult InstanceRun::result() {
  net::Network& network = *network_;
  const net::FlowProgress& prog = network.progress(kMainFlowId);
  RunResult result;
  result.mode = mode_;
  result.completed = prog.completed;
  result.delivered_bits = prog.delivered_bits;
  result.completion_s = util::Seconds{
      prog.completion_time.has_value()
          ? (*prog.completion_time - flow_start_).seconds()
          : (network.simulator().now() - flow_start_).seconds()};

  result.transmit_energy_j = network.total_transmit_energy();
  result.movement_energy_j = network.total_movement_energy();
  result.total_energy_j = network.total_consumed_energy() - warmup_consumed_;

  result.notifications = prog.notifications_from_dest;
  result.notify_retries = prog.notification_retries;
  result.notifications_applied = prog.notifications_at_source;
  result.medium = network.medium().counters();
  result.recruits = prog.recruits;
  result.movements = policy_->movements_applied();
  result.moved_distance_m = policy_->total_distance_moved();

  result.any_death = network.first_death_time().has_value();
  result.lifetime_s = util::Seconds{
      result.any_death
          ? (*network.first_death_time() - flow_start_).seconds()
          : (network.simulator().now() - flow_start_).seconds()};

  result.path = trace_flow_path(network, kMainFlowId);
  result.final_positions = network.positions();
  result.final_energies.reserve(network.node_count());
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    result.final_energies.push_back(
        network.node(static_cast<net::NodeId>(i)).battery().residual());
  }
  return result;
}

}  // namespace imobif::exp
