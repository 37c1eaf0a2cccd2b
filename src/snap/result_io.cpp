#include "snap/result_io.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/imobif_policy.hpp"

namespace imobif::snap {

util::Json result_to_json(const exp::RunResult& result) {
  util::Json doc = util::Json::object();
  doc.set("mode", util::Json(core::to_string(result.mode)));
  doc.set("completed", util::Json(result.completed));
  doc.set("delivered_bits", util::Json(result.delivered_bits.value()));
  doc.set("completion_s", util::Json(result.completion_s.value()));
  doc.set("transmit_energy_j", util::Json(result.transmit_energy_j.value()));
  doc.set("movement_energy_j", util::Json(result.movement_energy_j.value()));
  doc.set("total_energy_j", util::Json(result.total_energy_j.value()));
  doc.set("notifications", util::Json(result.notifications));
  doc.set("notify_retries", util::Json(result.notify_retries));
  doc.set("notifications_applied",
          util::Json(result.notifications_applied));
  doc.set("recruits", util::Json(result.recruits));
  doc.set("movements", util::Json(result.movements));
  doc.set("moved_distance_m", util::Json(result.moved_distance_m.value()));

  util::Json medium = util::Json::object();
  medium.set("broadcasts", util::Json(result.medium.broadcasts));
  medium.set("unicasts", util::Json(result.medium.unicasts));
  medium.set("delivered", util::Json(result.medium.delivered));
  medium.set("dropped_out_of_range",
             util::Json(result.medium.dropped_out_of_range));
  medium.set("dropped_dead", util::Json(result.medium.dropped_dead));
  medium.set("dropped_unknown", util::Json(result.medium.dropped_unknown));
  medium.set("dropped_injected", util::Json(result.medium.dropped_injected));
  medium.set("dropped_faulted", util::Json(result.medium.dropped_faulted));
  doc.set("medium", std::move(medium));

  doc.set("lifetime_s", util::Json(result.lifetime_s.value()));
  doc.set("any_death", util::Json(result.any_death));

  util::Json path = util::Json::array();
  for (const net::NodeId id : result.path) {
    path.push_back(util::Json(static_cast<std::uint64_t>(id)));
  }
  doc.set("path", std::move(path));

  util::Json positions = util::Json::array();
  for (const geom::Vec2& p : result.final_positions) {
    util::Json point = util::Json::array();
    point.push_back(util::Json(p.x));
    point.push_back(util::Json(p.y));
    positions.push_back(std::move(point));
  }
  doc.set("final_positions", std::move(positions));

  util::Json energies = util::Json::array();
  for (const util::Joules e : result.final_energies) {
    energies.push_back(util::Json(e.value()));
  }
  doc.set("final_energies", std::move(energies));
  return doc;
}

void encode_run_result(StateWriter& w, const exp::RunResult& result) {
  w.begin_section("result");
  w.u8(static_cast<std::uint8_t>(result.mode));
  w.boolean(result.completed);
  w.f64(result.delivered_bits.value());
  w.f64(result.completion_s.value());
  w.f64(result.transmit_energy_j.value());
  w.f64(result.movement_energy_j.value());
  w.f64(result.total_energy_j.value());
  w.u64(result.notifications);
  w.u64(result.notify_retries);
  w.u64(result.notifications_applied);
  w.u64(result.recruits);
  w.u64(result.movements);
  w.f64(result.moved_distance_m.value());
  w.u64(result.medium.broadcasts);
  w.u64(result.medium.unicasts);
  w.u64(result.medium.delivered);
  w.u64(result.medium.dropped_out_of_range);
  w.u64(result.medium.dropped_dead);
  w.u64(result.medium.dropped_unknown);
  w.u64(result.medium.dropped_injected);
  w.u64(result.medium.dropped_faulted);
  w.f64(result.lifetime_s.value());
  w.boolean(result.any_death);
  w.u64(result.path.size());
  for (const net::NodeId id : result.path) w.u64(id);
  w.u64(result.final_positions.size());
  for (const geom::Vec2& p : result.final_positions) {
    w.f64(p.x);
    w.f64(p.y);
  }
  w.u64(result.final_energies.size());
  for (const util::Joules e : result.final_energies) w.f64(e.value());
  w.end_section();
}

exp::RunResult decode_run_result(StateReader& r) {
  r.begin_section("result");
  exp::RunResult result;
  const std::uint8_t mode_raw = r.u8();
  if (mode_raw > static_cast<std::uint8_t>(core::MobilityMode::kInformed)) {
    throw std::runtime_error("result: invalid mobility mode " +
                             std::to_string(mode_raw));
  }
  result.mode = static_cast<core::MobilityMode>(mode_raw);
  result.completed = r.boolean();
  result.delivered_bits = util::Bits{r.f64()};
  result.completion_s = util::Seconds{r.f64()};
  result.transmit_energy_j = util::Joules{r.f64()};
  result.movement_energy_j = util::Joules{r.f64()};
  result.total_energy_j = util::Joules{r.f64()};
  result.notifications = r.u64();
  result.notify_retries = r.u64();
  result.notifications_applied = r.u64();
  result.recruits = r.u64();
  result.movements = r.u64();
  result.moved_distance_m = util::Meters{r.f64()};
  result.medium.broadcasts = r.u64();
  result.medium.unicasts = r.u64();
  result.medium.delivered = r.u64();
  result.medium.dropped_out_of_range = r.u64();
  result.medium.dropped_dead = r.u64();
  result.medium.dropped_unknown = r.u64();
  result.medium.dropped_injected = r.u64();
  result.medium.dropped_faulted = r.u64();
  result.lifetime_s = util::Seconds{r.f64()};
  result.any_death = r.boolean();
  // These counts come from a .result file that may be corrupt.
  const std::uint64_t path_count = r.count(kEncodedWord);
  result.path.reserve(path_count);
  for (std::uint64_t i = 0; i < path_count; ++i) {
    result.path.push_back(static_cast<net::NodeId>(r.u64()));
  }
  const std::uint64_t position_count = r.count(2 * kEncodedWord);
  result.final_positions.reserve(position_count);
  for (std::uint64_t i = 0; i < position_count; ++i) {
    geom::Vec2 p;
    p.x = r.f64();
    p.y = r.f64();
    result.final_positions.push_back(p);
  }
  const std::uint64_t energy_count = r.count(kEncodedWord);
  result.final_energies.reserve(energy_count);
  for (std::uint64_t i = 0; i < energy_count; ++i) {
    result.final_energies.push_back(util::Joules{r.f64()});
  }
  r.end_section();
  return result;
}

void save_result(const std::string& path, const exp::RunResult& result) {
  StateWriter writer;
  encode_run_result(writer, result);
  writer.write_file(path);
}

exp::RunResult load_result(const std::string& path) {
  StateReader reader = StateReader::from_file(path);
  return decode_run_result(reader);
}

}  // namespace imobif::snap
