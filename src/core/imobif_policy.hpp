// ImobifPolicy: the Figure-1 node operations, pluggable into net::Node.
//
// One policy object serves a whole simulated network (it is stateless per
// node; per-flow state lives in each node's flow table). The same class
// also realizes the paper's two comparison baselines:
//
//   kNoMobility   — relays never move and no aggregation happens; the pure
//                   static network of Section 4's "approach without
//                   mobility".
//   kCostUnaware  — relays always execute the strategy movement; the
//                   destination never evaluates cost/benefit ("approach
//                   with only cost-unaware mobility"; run flows with
//                   initially_enabled = true).
//   kInformed     — the full iMobif framework: aggregate en route, evaluate
//                   at the destination, notify the source on status change.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/strategy.hpp"
#include "energy/mobility_model.hpp"
#include "energy/radio_model.hpp"
#include "net/mobility_policy.hpp"
#include "util/units.hpp"

namespace imobif::core {

enum class MobilityMode : std::uint8_t {
  kNoMobility,
  kCostUnaware,
  kInformed,
};

const char* to_string(MobilityMode mode);

/// How the cost/benefit aggregate is assembled along the path.
///
/// kPaperLocal — the literal Figure-1 listing: each *sender* evaluates its
/// own out-hop with the next node at its current position. One-step myopic:
/// a relay's movement mostly shortens the hop *into* it, a benefit the
/// upstream node cannot see until movement actually happens, so enabling
/// under-fires on crooked paths.
///
/// kHopReceiver — each hop is evaluated once, at its *receiver*, with both
/// endpoints at their planned positions; the sender's plan (target +
/// remaining movement energy) rides in the data header, exactly the
/// paper's information-dissemination mechanism. This removes the myopia
/// and reproduces the paper's reported enable/disable behaviour; it is the
/// default. examples/scenarios/ablation_estimator.conf quantifies the
/// difference.
enum class BenefitEstimator : std::uint8_t {
  kPaperLocal,
  kHopReceiver,
};

const char* to_string(BenefitEstimator estimator);

// snap:transient(policy config and strategy registry rebuilt from scenario params by create_shell; counters restored via restore_counters)
class ImobifPolicy : public net::MobilityPolicy {
 public:
  ImobifPolicy(const energy::RadioEnergyModel& radio,
               const energy::MobilityEnergyModel& mobility,
               MobilityMode mode);

  /// Registers a strategy under its own id; replaces any previous one.
  void register_strategy(std::unique_ptr<MobilityStrategy> strategy);
  const MobilityStrategy* strategy(net::StrategyId id) const;

  MobilityMode mode() const { return mode_; }
  const energy::MobilityEnergyModel& mobility_model() const {
    return mobility_;
  }

  /// Extension (paper future work / TR): when a relay serves several flows,
  /// blend the per-flow targets weighted by residual flow bits instead of
  /// chasing the most recent flow's target.
  void set_multi_flow_blending(bool enabled) {
    multi_flow_blending_ = enabled;
  }
  bool multi_flow_blending() const { return multi_flow_blending_; }

  /// Cap sustainable bits at the residual flow length (default, see
  /// core/cost_benefit.hpp); false selects the raw-capacity variant.
  void set_cap_bits(bool cap) { cap_bits_ = cap; }
  bool cap_bits() const { return cap_bits_; }

  void set_estimator(BenefitEstimator estimator) { estimator_ = estimator; }
  BenefitEstimator estimator() const { return estimator_; }

  /// Relay recruitment (paper Section 5 future work: optimize the
  /// *selection* of intermediate flow nodes, not just their positions).
  /// When enabled, a relay periodically checks whether splitting its
  /// current hop by inviting an idle neighbor near the hop midpoint saves
  /// transmission energy over the residual flow, net of the invitee's
  /// expected relocation cost times `margin`; if so it sends a RECRUIT
  /// packet and re-pins its next hop to the invitee.
  void enable_recruitment(double margin = 1.2,
                          std::uint32_t check_period_packets = 64);
  bool recruitment_enabled() const { return recruitment_enabled_; }
  std::uint64_t recruits_initiated() const { return recruits_initiated_; }

  /// Destination-side notification damping: after requesting a status
  /// change, suppress further requests until at least `packets` more data
  /// packets have arrived. 0 (default) reproduces the paper's immediate
  /// per-packet re-evaluation; small values kill the rare end-of-flow
  /// oscillation tail visible in Figure 7
  /// (examples/scenarios/ablation_damping.conf).
  void set_notification_min_gap(std::uint32_t packets) {
    notification_min_gap_ = packets;
  }
  std::uint32_t notification_min_gap() const {
    return notification_min_gap_;
  }

  // net::MobilityPolicy implementation (Figure 1).
  void seed_at_source(net::Node& source, net::DataBody& data,
                      net::FlowEntry& entry) override;
  void on_relay(net::Node& relay, net::DataBody& data,
                net::FlowEntry& entry) override;
  void after_forward(net::Node& relay, net::FlowEntry& entry) override;
  std::optional<bool> evaluate_at_destination(net::Node& dest,
                                              const net::DataBody& data,
                                              net::FlowEntry& entry) override;

  std::uint64_t movements_applied() const { return movements_applied_; }
  util::Meters total_distance_moved() const { return total_distance_moved_; }

  /// Checkpoint restore: overwrites the run counters (src/snap).
  void restore_counters(std::uint64_t movements, util::Meters distance_moved,
                        std::uint64_t recruits) {
    movements_applied_ = movements;
    total_distance_moved_ = distance_moved;
    recruits_initiated_ = recruits;
  }

 private:
  geom::Vec2 movement_target(const net::Node& relay,
                             const net::FlowEntry& entry) const;
  void maybe_recruit(net::Node& relay, net::FlowEntry& entry);

  const energy::RadioEnergyModel& radio_;
  const energy::MobilityEnergyModel& mobility_;
  MobilityMode mode_;
  bool multi_flow_blending_ = false;
  bool cap_bits_ = true;
  BenefitEstimator estimator_ = BenefitEstimator::kHopReceiver;
  std::uint32_t notification_min_gap_ = 0;
  bool recruitment_enabled_ = false;
  double recruit_margin_ = 1.2;
  std::uint32_t recruit_check_period_ = 64;
  std::uint64_t recruits_initiated_ = 0;
  std::unordered_map<net::StrategyId, std::unique_ptr<MobilityStrategy>>
      strategies_;
  std::uint64_t movements_applied_ = 0;
  util::Meters total_distance_moved_;
};

/// Builds a policy with both paper strategies registered; `alpha_prime`
/// parameterizes the max-lifetime approximation (default: radio alpha).
std::unique_ptr<ImobifPolicy> make_default_policy(
    const energy::RadioEnergyModel& radio,
    const energy::MobilityEnergyModel& mobility, MobilityMode mode,
    double alpha_prime = 0.0);

}  // namespace imobif::core
