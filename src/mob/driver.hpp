// MotionDriver: drives a MobilityModel through the event queue.
//
// The driver owns the model and a repeating kMobTick event: every
// params.update_s it steps the model over the network's current positions
// and applies the moves — interleaving deterministically with the
// strategy-driven relay motion, HELLO ticks, and packet events that share
// the same (time, seq) order. Dead nodes never move; ambient motion is
// free by default (the paper's background mobility is environmental, not
// budgeted) unless params.charge_energy opts the scenario into charging
// the move budget via Node::move_towards.
//
// The tick is a plain kMobTick event record. The network executes every
// event but does not know src/mob, so the driver registers itself as the
// network's motion sink and the network forwards kMobTick to it.
//
// Checkpointing: the driver's dynamic state is (model rng, model state,
// pending tick time); src/snap encodes all three, and the pending tick is
// re-inserted with every other event record (Network::restore_event).
#pragma once

#include <cstdint>
#include <memory>

#include "mob/model.hpp"
#include "sim/event_tag.hpp"
#include "sim/time.hpp"
#include "util/units.hpp"

namespace imobif::net {
class Network;
}  // namespace imobif::net

namespace imobif::mob {

class MotionDriver final : public sim::EventSink {
 public:
  /// Reads the nodes' current (initial) positions from `network` to seed
  /// per-node model state and registers as its motion sink. `move_cost` is
  /// the scenario's J/m constant, used only when params.charge_energy is
  /// set.
  MotionDriver(net::Network& network, const ModelParams& params,
               std::uint64_t seed, util::Meters area,
               util::JoulesPerMeter move_cost);
  ~MotionDriver();
  MotionDriver(const MotionDriver&) = delete;
  MotionDriver& operator=(const MotionDriver&) = delete;

  /// Schedules the first tick one update interval from now.
  void start();

  /// Executes a kMobTick: steps the model, applies the moves, re-arms.
  void dispatch(const sim::Event& ev) override;

  MobilityModel& model() { return *model_; }
  const MobilityModel& model() const { return *model_; }
  const ModelParams& params() const { return model_->params(); }

 private:
  net::Network& network_;
  std::unique_ptr<MobilityModel> model_;
  // snap:transient(per-meter cost constant re-derived from scenario params by create_shell)
  util::JoulesPerMeter move_cost_;
};

}  // namespace imobif::mob
