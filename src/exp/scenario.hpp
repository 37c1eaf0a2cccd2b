// Scenario parameters for the paper's evaluation (Section 4), with the
// OCR-reconstructed defaults documented in DESIGN.md:
//
//   100 nodes uniform in a 1000 m x 1000 m area, communication range 180 m
//   (~10 neighbors/node), P(d) = a + b d^alpha with a = 1e-7 J/bit,
//   b = 1e-10 J m^-alpha / bit, E_M(d) = k d, max step 1 m, flow rate
//   1 KB/s (8 Kbps), 1 KB packets, mobility initially disabled.
#pragma once

#include <cstdint>

#include "energy/mobility_model.hpp"
#include "energy/radio_model.hpp"
#include "mob/params.hpp"
#include "net/fault.hpp"
#include "net/packet.hpp"
#include "traffic/params.hpp"
#include "util/units.hpp"

namespace imobif::exp {

// snap:transient(persisted wholesale as config text in the meta section via to_config_string and apply_config)
struct ScenarioParams {
  // Topology.
  util::Meters area_m{1000.0};
  std::size_t node_count = 100;
  util::Meters comm_range_m{180.0};
  /// Sampled (source, destination) pairs must be greedy-routable with at
  /// least this many hops (a 1-hop "flow" has no relays to move).
  std::size_t min_hops = 3;

  // Models. The amplifier coefficient b is unreadable in the OCR of the
  // paper (and its unit J*m^-alpha/bit depends on alpha, so one value
  // cannot serve both exponents); these values are calibrated so the
  // paper's k-sweep crossovers land inside the evaluated flow-length range
  // (see DESIGN.md). For alpha = 3 use b ~ 3e-12.
  energy::RadioParams radio{1e-7, 5e-10, 2.0};  // a, b, alpha
  energy::MobilityParams mobility;              // k, max_step

  // Node energy. When `random_energy`, initial charge ~ U[lo, hi]
  // (Fig 8: U[5, 100] J, "intentionally low"); otherwise every node starts
  // at `initial_energy_j` (Fig 6: ample, so no node dies mid-flow).
  util::Joules initial_energy_j{2000.0};
  bool random_energy = false;
  util::Joules energy_lo_j{5.0};
  util::Joules energy_hi_j{100.0};

  // Flow workload. Lengths are exponential with this mean (Fig 6: 100 KB
  // short / 1 MB long; 8 bits per byte).
  util::Bits mean_flow_bits{100.0 * 1024.0 * 8.0};
  util::Bits packet_bits{8192.0};
  util::BitsPerSecond rate_bps{8192.0};
  double length_estimate_factor = 1.0;  ///< ablation A2

  // Control plane.
  util::Seconds hello_interval_s{10.0};
  util::Seconds warmup_s{25.0};
  /// Localization error radius for advertised positions (Assumption 2
  /// backed by imperfect localization instead of GPS); 0 = perfect
  /// (ablation A9).
  util::Meters position_error_m{0.0};
  /// HELLO beacons are free by default in experiments so the measured
  /// energy isolates the paper's E_T + E_M terms; the protocol itself
  /// always runs.
  bool charge_hello_energy = false;

  // Strategy knobs.
  net::StrategyId strategy = net::StrategyId::kMinTotalEnergy;
  double alpha_prime = 0.0;       ///< 0 = use radio alpha (ablation A1)
  double line_bias_weight = 0.0;  ///< >0 = line-biased greedy (ablation A3)
  bool cap_bits = true;           ///< see core/cost_benefit.hpp (ablation)
  /// Use the literal Figure-1 per-sender estimator instead of the default
  /// hop-receiver estimator (see core/imobif_policy.hpp; ablation A5).
  bool paper_local_estimator = false;
  /// Solve the Theorem-1 hop balance exactly (bisection) instead of the
  /// paper's power-law approximation (ablation A6).
  bool exact_lifetime_split = false;
  /// Destination-side notification damping in packets (ablation A7);
  /// 0 = the paper's immediate per-packet re-evaluation.
  std::uint32_t notification_min_gap = 0;
  /// Relay recruitment margin (extension E2); 0 disables recruitment,
  /// > 0 enables it with that relocation-cost margin.
  double recruit_margin = 0.0;
  /// Blend strategy targets across flows at shared relays (extension E1);
  /// effective when this OR RunOptions::multi_flow_blending is set.
  bool multi_flow_blending = false;

  // Background mobility and traffic models (DESIGN.md §14). Both default
  // to disabled/legacy (kNone motion, kCbr traffic), in which case no
  // events are scheduled, no extra RNG is drawn, and every existing
  // scenario replays byte-identically.
  mob::ModelParams mob;
  traffic::Params traffic;

  // Fault model (DESIGN.md §7). The default plan is disabled and injects
  // nothing; with loss/crashes configured, every fault sequence is
  // deterministic in fault.seed alone (independent of the scenario seed).
  net::FaultPlan fault;
  /// Destination-side notification reliability: retransmit an unconfirmed
  /// status-change request up to this many times with doubling backoff.
  /// 0 = the paper's fire-and-forget notification (default).
  std::uint32_t notify_retry_cap = 0;
  util::Seconds notify_retry_timeout_s{2.0};

  std::uint64_t seed = 1;

  void validate() const;
};

}  // namespace imobif::exp
