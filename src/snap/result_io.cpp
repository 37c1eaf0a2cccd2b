#include "snap/result_io.hpp"

#include <cstdint>
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

// Defined in snapshot.cpp, which instantiates it for StateWriter and
// StateReader.
template <class Ar>
void fields(Ar& ar, net::Medium::Counters& counters);

template <class Ar>
void fields(Ar& ar, exp::RunResult& result) {
  ar.enumeration(result.mode, core::MobilityMode::kInformed, "mobility mode");
  ar.boolean(result.completed);
  ar.f64(result.delivered_bits);
  ar.f64(result.completion_s);
  ar.f64(result.transmit_energy_j);
  ar.f64(result.movement_energy_j);
  ar.f64(result.total_energy_j);
  ar.u64(result.notifications);
  ar.u64(result.notify_retries);
  ar.u64(result.notifications_applied);
  ar.u64(result.recruits);
  ar.u64(result.movements);
  ar.f64(result.moved_distance_m);
  fields(ar, result.medium);
  ar.f64(result.lifetime_s);
  ar.boolean(result.any_death);
  ar.list(result.path, kU64);
  ar.list(result.final_positions, kVec2);
  ar.list(result.final_energies, kF64);
}

void encode_run_result(StateWriter& w, const exp::RunResult& result) {
  w.begin_section("result");
  w.record(result);
  w.end_section();
}

exp::RunResult decode_run_result(StateReader& r) {
  r.begin_section("result");
  exp::RunResult result = r.get<exp::RunResult>();
  r.end_section();
  return result;
}

void save_result(const std::string& path, const exp::RunResult& result) {
  StateWriter writer;
  encode_run_result(writer, result);
  writer.write_file(path);
}

exp::RunResult load_result(const std::string& path) {
  const std::string bytes = read_file(path);
  StateReader reader(bytes);
  return decode_run_result(reader);
}

}  // namespace imobif::snap
