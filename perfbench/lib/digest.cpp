#include "lib/digest.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

namespace perfbench {

using namespace imobif;

void Digest::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash_ = (hash_ ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
  }
}

void Digest::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

std::string to_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

namespace {

void hash_drops(Digest& d, const net::Medium::Counters& c) {
  d.u64(c.dropped_out_of_range);
  d.u64(c.dropped_dead);
  d.u64(c.dropped_unknown);
  d.u64(c.dropped_injected);
  d.u64(c.dropped_faulted);
}

}  // namespace

void hash_result(Digest& d, const exp::RunResult& r) {
  d.u64(static_cast<std::uint64_t>(r.mode));
  d.u64(r.completed ? 1 : 0);
  d.f64(r.delivered_bits.value());
  d.f64(r.completion_s.value());
  d.f64(r.transmit_energy_j.value());
  d.f64(r.movement_energy_j.value());
  d.f64(r.total_energy_j.value());
  d.u64(r.notifications);
  d.u64(r.notify_retries);
  d.u64(r.notifications_applied);
  d.u64(r.recruits);
  d.u64(r.movements);
  d.f64(r.moved_distance_m.value());
  hash_drops(d, r.medium);
  d.f64(r.lifetime_s.value());
  d.u64(r.any_death ? 1 : 0);
  d.u64(r.path.size());
  for (const net::NodeId id : r.path) d.u64(id);
  d.u64(r.final_positions.size());
  for (const geom::Vec2& p : r.final_positions) {
    d.f64(p.x);
    d.f64(p.y);
  }
  for (const util::Joules& e : r.final_energies) d.f64(e.value());
}

void hash_network(Digest& d, const net::Network& network) {
  d.u64(network.node_count());
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    const net::Node& node = network.node(static_cast<net::NodeId>(i));
    d.f64(node.position().x);
    d.f64(node.position().y);
    d.f64(node.battery().residual().value());
  }
  hash_drops(d, network.medium().counters());
  d.u64(network.total_data_drops());
  std::vector<const net::FlowProgress*> flows = network.all_progress();
  std::sort(flows.begin(), flows.end(),
            [](const auto* a, const auto* b) { return a->spec.id < b->spec.id; });
  for (const net::FlowProgress* f : flows) {
    d.u64(f->spec.id);
    d.f64(f->delivered_bits.value());
    d.u64(f->notifications_from_dest);
    d.u64(f->notifications_at_source);
  }
}

}  // namespace perfbench
