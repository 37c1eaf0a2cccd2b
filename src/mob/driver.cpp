#include "mob/driver.hpp"

#include <utility>
#include <vector>

#include "net/network.hpp"

namespace imobif::mob {

MotionDriver::MotionDriver(net::Network& network, const ModelParams& params,
                           std::uint64_t seed, util::Meters area,
                           util::JoulesPerMeter move_cost)
    : network_(network),
      model_(make_model(params, seed, area, network.positions())),
      move_cost_(move_cost) {
  network_.set_motion_sink(this);
}

MotionDriver::~MotionDriver() { network_.set_motion_sink(nullptr); }

void MotionDriver::start() {
  network_.simulator().after(sim::Time::from_seconds(params().update_s.value()),
                             sim::EventTag::mob_tick());
}

void MotionDriver::dispatch(const sim::Event&) {
  const util::Seconds dt = params().update_s;
  std::vector<geom::Vec2> positions = network_.positions();
  model_->step(util::Seconds{network_.simulator().now().seconds()}, dt,
               positions);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    net::Node& node = network_.node(static_cast<net::NodeId>(i));
    if (!node.alive()) continue;  // the dead stay where they fell
    const geom::Vec2 target = positions[i];
    if (target == node.position()) continue;
    if (params().charge_energy) {
      // Budgeted motion: charge the move like strategy-driven relaying
      // does; move_towards truncates to what the battery affords (and
      // skips faulted nodes entirely).
      node.move_towards(target,
                        util::Meters{geom::distance(node.position(), target)},
                        move_cost_);
    } else {
      node.set_position(target);
    }
  }
  network_.simulator().after(sim::Time::from_seconds(dt.value()),
                             sim::EventTag::mob_tick());
}

}  // namespace imobif::mob
