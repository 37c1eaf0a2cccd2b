// Umbrella header for the iMobif library public API.
//
// Typical use:
//
//   #include "core/imobif.hpp"
//
//   imobif::net::Network net(cfg);
//   ... add nodes, set routing ...
//   auto policy = imobif::core::make_default_policy(
//       net.radio(), mobility_model, imobif::core::MobilityMode::kInformed);
//   net.set_policy(policy.get());
//   net.warmup(30.0);
//   net.start_flow(spec);
//   net.run_flows(3600.0);
#pragma once

#include "core/cost_benefit.hpp"       // IWYU pragma: export
#include "core/imobif_policy.hpp"      // IWYU pragma: export
#include "core/lifetime_solver.hpp"    // IWYU pragma: export
#include "core/max_lifetime_strategy.hpp"  // IWYU pragma: export
#include "core/min_energy_strategy.hpp"    // IWYU pragma: export
#include "core/strategy.hpp"           // IWYU pragma: export
#include "energy/battery.hpp"          // IWYU pragma: export
#include "energy/mobility_model.hpp"   // IWYU pragma: export
#include "energy/radio_model.hpp"      // IWYU pragma: export
#include "net/greedy_routing.hpp"      // IWYU pragma: export
#include "net/network.hpp"             // IWYU pragma: export
