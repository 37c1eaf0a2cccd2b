// Shared fixtures for network-level tests: small deterministic topologies.
#pragma once

#include <memory>
#include <vector>

#include "core/imobif.hpp"

namespace imobif::test {

/// A Network plus the policy that must outlive it, bundled so tests can
/// build line topologies in one call.
struct Harness {
  std::unique_ptr<net::Network> network;
  std::unique_ptr<energy::MobilityEnergyModel> mobility;
  std::unique_ptr<core::ImobifPolicy> policy;

  net::Network& net() { return *network; }
};

struct HarnessOptions {
  double comm_range_m = 180.0;
  util::Joules initial_energy_j{2000.0};
  /// Per-node initial energies by id; nodes past its end get
  /// initial_energy_j.
  std::vector<util::Joules> node_energy_j{};
  double k = 0.5;
  double max_step_m = 1.0;
  double radio_a = 1e-7;
  double radio_b = 5e-10;
  double radio_alpha = 2.0;
  double hello_interval_s = 10.0;
  bool charge_hello_energy = false;
  bool unicast_range_gated = false;
  core::MobilityMode mode = core::MobilityMode::kInformed;
  double alpha_prime = 0.0;
  /// Notification reliability (0 keeps the fire-and-forget default).
  std::uint32_t notify_retry_cap = 0;
  util::Seconds notify_retry_timeout_s{2.0};
};

/// Builds a network with nodes at the given positions (ids 0..n-1), greedy
/// routing, and a default policy in the given mode.
inline Harness make_harness(const std::vector<geom::Vec2>& positions,
                            const HarnessOptions& opts = {}) {
  Harness h;
  net::NetworkConfig config;
  config.medium.comm_range_m = opts.comm_range_m;
  config.medium.unicast_range_gated = opts.unicast_range_gated;
  config.node.hello_interval = sim::Time::from_seconds(opts.hello_interval_s);
  config.node.neighbor_timeout =
      sim::Time::from_seconds(4.5 * opts.hello_interval_s);
  config.node.charge_hello_energy = opts.charge_hello_energy;
  config.node.notify_retry_cap = opts.notify_retry_cap;
  config.node.notify_retry_timeout =
      sim::Time::from_seconds(opts.notify_retry_timeout_s.value());
  config.radio.a = opts.radio_a;
  config.radio.b = opts.radio_b;
  config.radio.alpha = opts.radio_alpha;

  h.network = std::make_unique<net::Network>(config);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    h.network->add_node(positions[i], i < opts.node_energy_j.size()
                                          ? opts.node_energy_j[i]
                                          : opts.initial_energy_j);
  }
  h.network->set_routing(
      std::make_unique<net::GreedyRouting>(h.network->medium()));

  energy::MobilityParams mp;
  mp.k = opts.k;
  mp.max_step_m = opts.max_step_m;
  h.mobility = std::make_unique<energy::MobilityEnergyModel>(mp);
  h.policy = core::make_default_policy(h.network->radio(), *h.mobility,
                                       opts.mode, opts.alpha_prime);
  h.network->set_policy(h.policy.get());
  return h;
}

/// Evenly spaced positions on a horizontal line from (0, y) to (length, y).
inline std::vector<geom::Vec2> line_positions(std::size_t count,
                                              double length,
                                              double y = 0.0) {
  std::vector<geom::Vec2> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.emplace_back(length * static_cast<double>(i) /
                         static_cast<double>(count - 1),
                     y);
  }
  return out;
}

/// A default one-to-one flow spec over nodes 0 -> last.
inline net::FlowSpec default_flow(const net::Network& network,
                                  double length_bits,
                                  net::StrategyId strategy =
                                      net::StrategyId::kMinTotalEnergy) {
  net::FlowSpec spec;
  spec.id = 1;
  spec.source = 0;
  spec.destination = static_cast<net::NodeId>(network.node_count() - 1);
  spec.length_bits = util::Bits{length_bits};
  spec.strategy = strategy;
  return spec;
}

}  // namespace imobif::test
