#include "net/node.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geom/segment.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace imobif::net {

using util::Bits;
using util::Joules;
using util::Meters;

const char* to_string(DropReason reason) {
  switch (reason) {
    case DropReason::kDeadNode:
      return "dead-node";
    case DropReason::kNoRoute:
      return "no-route";
    case DropReason::kNoEnergy:
      return "no-energy";
    case DropReason::kOutOfRange:
      return "out-of-range";
    case DropReason::kUnknownFlow:
      return "unknown-flow";
    case DropReason::kFaulted:
      return "faulted";
    case DropReason::kStaleNotify:
      return "stale-notify";
  }
  return "?";
}

void NetworkEvents::on_delivered(Node&, const DataBody&) {}
void NetworkEvents::on_notification_initiated(Node&,
                                              const NotificationBody&) {}
void NetworkEvents::on_notification_retry(Node&, const NotificationBody&) {}
void NetworkEvents::on_notification_at_source(Node&,
                                              const NotificationBody&) {}
void NetworkEvents::on_node_depleted(Node&) {}
void NetworkEvents::on_drop(Node&, PacketType, DropReason) {}
void NetworkEvents::on_recruited(Node&, const RecruitBody&) {}

Node::Node(NodeId id, geom::Vec2 position, Joules initial_energy,
           const Services& services, const NodeConfig& config)
    : id_(id),
      battery_(initial_energy),
      neighbors_(config.neighbor_timeout),
      services_(&services),
      config_(&config) {
  if (services.sim == nullptr || services.medium == nullptr ||
      services.radio == nullptr || services.events == nullptr) {
    throw std::invalid_argument(
        "Node: sim, medium, radio and events are required");
  }
  if (services.store == nullptr || !services.store->has(id_)) {
    throw std::invalid_argument("Node: a NodeStore slot for the id is "
                                "required");
  }
  pos_cell_ = services.store->position_cell(id_);
  *pos_cell_ = position;
  battery_.bind_residual_cell(services.store->residual_cell(id_));
  battery_.set_depletion_callback([this] {
    stop_hello();
    services_->events->on_node_depleted(*this);
  });
}

sim::Time Node::now() const { return services_->sim->now(); }

void Node::set_faulted(bool faulted) {
  if (faulted_ == faulted) return;
  faulted_ = faulted;
  if (faulted_) {
    stop_hello();
  } else if (alive()) {
    start_hello();
  }
}

void Node::set_position(geom::Vec2 p) {
  pos() = p;
  services_->medium->node_moved(id_, p);
}

geom::Vec2 Node::advertised_position() const {
  if (config_->position_error_m <= Meters{0.0}) return pos();
  // Localization error is a slowly varying per-node *bias*, not white
  // noise: multilateration against quasi-static references drifts over
  // re-localization periods, so the offset is re-drawn once per 100 s
  // epoch (not per packet — per-packet jitter would make strategy targets
  // chase noise, which no real position service exhibits).
  const std::int64_t epoch =
      now().ticks() / (100 * sim::Time::kTicksPerSecond);
  std::uint64_t state = (static_cast<std::uint64_t>(id_) << 32) ^
                        static_cast<std::uint64_t>(epoch) ^
                        0x9e3779b97f4a7c15ULL;
  const double u1 = static_cast<double>(util::splitmix64(state) >> 11) *
                    0x1.0p-53;
  const double u2 = static_cast<double>(util::splitmix64(state) >> 11) *
                    0x1.0p-53;
  const double angle = 2.0 * M_PI * u1;
  const double radius = config_->position_error_m.value() * std::sqrt(u2);
  return pos() +
         geom::Vec2{radius * std::cos(angle), radius * std::sin(angle)};
}

Packet Node::stamp(PacketType type, NodeId link_dest, Bits size_bits) const {
  Packet pkt;
  pkt.type = type;
  pkt.sender = SenderStamp{id_, advertised_position(), battery_.residual()};
  pkt.link_dest = link_dest;
  pkt.size_bits = size_bits;
  return pkt;
}

void Node::start_hello() {
  stop_hello();
  if (!alive()) return;
  // Deterministic per-node phase: spread beacons across the interval so all
  // nodes do not transmit on the same tick.
  std::uint64_t h = id_ + 0x12345;
  const std::uint64_t hash = util::splitmix64(h);
  const auto phase_ticks = static_cast<std::int64_t>(
      hash % static_cast<std::uint64_t>(
                 std::max<std::int64_t>(1, config_->hello_interval.ticks())));
  hello_event_ = services_->sim->after(sim::Time::from_ticks(phase_ticks),
                                       sim::EventTag::hello_tick(id_));
}

void Node::stop_hello() {
  if (hello_event_ != 0) {
    services_->sim->cancel(hello_event_);
    hello_event_ = 0;
  }
}

void Node::send_hello_now() {
  if (!alive() || faulted_) return;
  Packet pkt = stamp(PacketType::kHello, kBroadcast, config_->hello_bits);
  pkt.body = HelloBody{};
  if (config_->charge_hello_energy) {
    const Joules cost = services_->radio->transmit_energy(
        services_->medium->comm_range(), config_->hello_bits);
    const Joules drawn = battery_.draw(cost, energy::DrawKind::kTransmit);
    if (drawn + Joules{1e-15} < cost) return;  // died mid-beacon
  }
  services_->medium->broadcast(*this, pkt);
}

void Node::hello_tick() {
  hello_event_ = 0;
  if (!alive()) return;
  send_hello_now();
  neighbors_.purge(now());
  if (!alive()) return;  // beacon cost may have finished the battery
  hello_event_ = services_->sim->after(config_->hello_interval,
                                       sim::EventTag::hello_tick(id_));
}

NeighborInfo Node::lookup(NodeId other) const {
  if (const auto hit = neighbors_.find(other, now())) return *hit;
  // GPS-oracle fallback (documented substitution): position is ground
  // truth, energy unknown (reported as 0).
  NeighborInfo info;
  info.id = other;
  info.position = services_->medium->true_position(other);
  info.residual_energy = Joules{0.0};
  info.last_heard = now();
  return info;
}

bool Node::transmit(Packet pkt, NodeId next, geom::Vec2 next_position) {
  if (!alive() || faulted_) return false;
  // Perfect power control (Assumption 4, hardware-support path): the
  // radio pays exactly the energy needed to reach the next hop's true
  // position; the caller's estimate is the fallback for unknown nodes.
  const Node* peer = services_->medium->find_node(next);
  const geom::Vec2 actual =
      peer != nullptr ? peer->position() : next_position;
  const Meters dist{geom::distance(pos(), actual)};
  const Joules cost = services_->radio->transmit_energy(dist, pkt.size_bits);
  const Joules drawn = battery_.draw(cost, energy::DrawKind::kTransmit);
  if (drawn + Joules{1e-15} < cost) {
    services_->events->on_drop(*this, pkt.type, DropReason::kNoEnergy);
    return false;
  }
  return services_->medium->unicast(*this, next, pkt);
}

Meters Node::move_towards(geom::Vec2 target, Meters max_step,
                          util::JoulesPerMeter cost_per_meter) {
  IMOBIF_ENSURE(std::isfinite(target.x) && std::isfinite(target.y),
                "movement target must be finite");
  if (!alive() || faulted_) return Meters{0.0};
  geom::Vec2 desired = geom::step_towards(pos(), target, max_step.value());
  Meters dist{geom::distance(pos(), desired)};
  IMOBIF_ASSERT(dist <= max_step * (1.0 + 1e-12) + Meters{1e-9},
                "per-packet mobility step exceeded its bound");
  if (dist <= Meters{0.0}) return Meters{0.0};
  if (cost_per_meter > util::JoulesPerMeter{0.0}) {
    const Meters affordable = battery_.residual() / cost_per_meter;
    if (affordable < dist) {
      // Move as far as the battery allows, then die en route.
      desired = geom::step_towards(pos(), desired, affordable.value());
      dist = Meters{geom::distance(pos(), desired)};
    }
    battery_.draw(dist * cost_per_meter, energy::DrawKind::kMove);
  }
  pos() = desired;
  IMOBIF_ASSERT(std::isfinite(desired.x) && std::isfinite(desired.y),
                "node position must stay finite after a mobility step");
  services_->medium->node_moved(id_, desired);
  total_moved_ += dist;
  return dist;
}

bool Node::originate_data(DataBody data) {
  IMOBIF_ENSURE(
      util::isfinite(data.payload_bits) && data.payload_bits >= Bits{0.0},
      "payload size must be finite and non-negative");
  IMOBIF_ENSURE(util::isfinite(data.residual_flow_bits) &&
                    data.residual_flow_bits >= Bits{0.0},
                "residual flow estimate must be finite and non-negative");
  if (!alive()) return false;
  FlowEntry& entry = flows_.ensure(data.flow_id);
  entry.source = data.source;
  entry.destination = data.destination;
  entry.strategy = data.strategy;
  entry.residual_bits = data.residual_flow_bits;

  if (entry.next == kInvalidNode && services_->routing != nullptr) {
    entry.next = services_->routing->next_hop(*this, data.destination);
  }
  if (entry.next == kInvalidNode) {
    services_->events->on_drop(*this, PacketType::kData, DropReason::kNoRoute);
    return false;
  }
  if (services_->policy != nullptr) {
    services_->policy->seed_at_source(*this, data, entry);
  }
  return forward_with_repair(data, entry);
}

void Node::handle_receive(const Packet& pkt) {
  if (!alive()) {
    services_->events->on_drop(*this, pkt.type, DropReason::kDeadNode);
    return;
  }
  // In-flight packets scheduled before a crash arrive after it took
  // effect; a crashed radio hears nothing.
  if (faulted_) {
    services_->events->on_drop(*this, pkt.type, DropReason::kFaulted);
    return;
  }
  // Receive electronics (0 under the paper's sender-pays model). Drawing
  // may deplete the battery; a node that dies *receiving* still processed
  // the packet's bits, so handling proceeds only if it survives.
  const Joules rx_cost = services_->radio->receive_energy(pkt.size_bits);
  if (rx_cost > Joules{0.0}) {
    battery_.draw(rx_cost, energy::DrawKind::kOther);
    if (!alive()) {
      services_->events->on_drop(*this, pkt.type, DropReason::kNoEnergy);
      return;
    }
  }
  // Piggybacked sender stamp refreshes the neighbor table on any reception.
  if (pkt.sender.id != kInvalidNode) {
    neighbors_.upsert(pkt.sender.id, pkt.sender.position,
                      pkt.sender.residual_energy, now());
  }
  switch (pkt.type) {
    case PacketType::kHello:
      break;  // stamp processing above is the whole protocol
    case PacketType::kData:
      handle_data(std::get<DataBody>(pkt.body), pkt.sender);
      break;
    case PacketType::kNotification:
      handle_notification(std::get<NotificationBody>(pkt.body));
      break;
    case PacketType::kRouteRequest:
    case PacketType::kRouteReply:
      if (services_->routing != nullptr) {
        services_->routing->handle_control(*this, pkt);
      }
      break;
    case PacketType::kRecruit:
      handle_recruit(std::get<RecruitBody>(pkt.body));
      break;
  }
}

void Node::handle_recruit(const RecruitBody& body) {
  // Pre-install the flow entry so subsequent DATA packets from the
  // recruiter route through us toward its old next hop (instead of being
  // re-resolved by the routing protocol).
  FlowEntry& entry = flows_.ensure(body.flow_id);
  entry.source = body.flow_source;
  entry.destination = body.flow_destination;
  entry.prev = body.upstream;
  entry.next = body.downstream;
  entry.strategy = body.strategy;
  entry.residual_bits = body.residual_flow_bits;
  entry.mobility_enabled = body.mobility_enabled;
  services_->events->on_recruited(*this, body);
}

void Node::handle_data(DataBody data, const SenderStamp& from) {
  // The enable/disable decision at the destination is computed from these
  // hop-by-hop folds. Sustainable-bits terms may saturate to +inf (a
  // zero-cost hop), but a NaN introduced anywhere upstream would silently
  // poison every comparison downstream of it.
  IMOBIF_ASSERT(
      !util::isnan(data.agg.bits_mob) && !util::isnan(data.agg.resi_mob) &&
          !util::isnan(data.agg.bits_nomob) &&
          !util::isnan(data.agg.resi_nomob),
      "NaN mobility aggregate in DATA header");
  IMOBIF_ASSERT(util::isfinite(data.residual_flow_bits) &&
                    data.residual_flow_bits >= Bits{0.0},
                "residual flow length must be finite and non-negative");
  // Figure 1, lines 4-6: fetch or allocate the flow entry, then refresh the
  // fields carried in the header.
  FlowEntry& entry = flows_.get_or_create(data);
  entry.prev = from.id;
  entry.strategy = data.strategy;
  entry.residual_bits = data.residual_flow_bits;

  if (data.destination == id_) {
    // Figure 1, lines 7-11: deliver and run UpdateMobilityStatus.
    services_->events->on_delivered(*this, data);
    // Reliability layer: the source's stamped status now reflects the
    // pending request — the flip is confirmed, stop retransmitting.
    if (entry.pending_status.has_value() &&
        data.mobility_enabled == *entry.pending_status) {
      entry.pending_status.reset();
      entry.notify_attempts = 0;
      cancel_notify_retry(entry);
    }
    if (services_->policy != nullptr) {
      const std::optional<bool> change =
          services_->policy->evaluate_at_destination(*this, data, entry);
      if (change.has_value()) send_notification(entry, *change, data.agg);
    }
    entry.mobility_enabled = data.mobility_enabled;
    return;
  }

  // Figure 1, lines 12-27: relay.
  if (entry.next == kInvalidNode && services_->routing != nullptr) {
    entry.next = services_->routing->next_hop(*this, data.destination);
  }
  if (entry.next == kInvalidNode) {
    services_->events->on_drop(*this, PacketType::kData, DropReason::kNoRoute);
    return;
  }
  ++entry.packets_relayed;
  if (services_->policy != nullptr) {
    services_->policy->on_relay(*this, data, entry);
  }
  ++data.hop_count;
  const bool sent = forward_with_repair(data, entry);

  // Figure 1, lines 23-26: adopt the carried status, then move if enabled.
  entry.mobility_enabled = data.mobility_enabled;
  if (sent && alive() && services_->policy != nullptr) {
    services_->policy->after_forward(*this, entry);
  }
}

bool Node::forward_with_repair(const DataBody& data, FlowEntry& entry) {
  Packet pkt = stamp(PacketType::kData, entry.next, data.payload_bits);
  pkt.body = data;
  if (transmit(std::move(pkt), entry.next, lookup(entry.next).position)) {
    return true;
  }
  // Local repair: the link layer reported a delivery failure (typically a
  // dead next hop). Re-resolve the route once, excluding nothing but what
  // the routing protocol itself skips, and retry.
  if (!alive() || services_->routing == nullptr) return false;
  const NodeId failed = entry.next;
  const NodeId repaired =
      services_->routing->next_hop(*this, data.destination);
  if (repaired == kInvalidNode || repaired == failed) {
    services_->events->on_drop(*this, PacketType::kData, DropReason::kNoRoute);
    return false;
  }
  entry.next = repaired;
  Packet retry = stamp(PacketType::kData, entry.next, data.payload_bits);
  retry.body = data;
  return transmit(std::move(retry), entry.next,
                  lookup(entry.next).position);
}

void Node::send_notification(FlowEntry& entry, bool enable,
                             const MobilityAggregate& agg) {
  if (entry.prev == kInvalidNode) return;
  // A new decision supersedes any pending one: bump the sequence, reset
  // the attempt counter, and restart the retry clock.
  cancel_notify_retry(entry);
  ++entry.notify_decision_seq;
  entry.notify_attempts = 0;
  entry.notify_agg = agg;
  entry.pending_status =
      config_->notify_retry_cap > 0 ? std::optional<bool>(enable)
                                    : std::nullopt;

  NotificationBody body;
  body.flow_id = entry.id;
  body.flow_source = entry.source;
  body.enable = enable;
  body.agg = agg;
  body.decision_seq = entry.notify_decision_seq;
  body.attempt = 0;
  services_->events->on_notification_initiated(*this, body);
  Packet pkt = stamp(PacketType::kNotification, entry.prev,
                     config_->notification_bits);
  pkt.body = body;
  transmit(std::move(pkt), entry.prev, lookup(entry.prev).position);
  schedule_notify_retry(entry);
}

void Node::transmit_notification(FlowEntry& entry) {
  NotificationBody body;
  body.flow_id = entry.id;
  body.flow_source = entry.source;
  body.enable = *entry.pending_status;
  body.agg = entry.notify_agg;
  body.decision_seq = entry.notify_decision_seq;
  body.attempt = static_cast<std::uint8_t>(
      std::min<std::uint32_t>(entry.notify_attempts, 255));
  services_->events->on_notification_retry(*this, body);
  Packet pkt = stamp(PacketType::kNotification, entry.prev,
                     config_->notification_bits);
  pkt.body = body;
  transmit(std::move(pkt), entry.prev, lookup(entry.prev).position);
  schedule_notify_retry(entry);
}

void Node::notify_retry_tick(FlowId flow) {
  FlowEntry* entry = flows_.find(flow);
  if (entry == nullptr) return;
  entry->notify_retry_event = 0;
  if (!entry->pending_status.has_value()) return;
  if (!alive()) return;
  if (faulted_ || entry->prev == kInvalidNode) {
    // A crashed destination (or a path broken right at the last hop)
    // abandons the request; a later packet re-evaluates from scratch.
    entry->pending_status.reset();
    return;
  }
  ++entry->notify_attempts;
  transmit_notification(*entry);
}

void Node::schedule_notify_retry(FlowEntry& entry) {
  if (config_->notify_retry_cap == 0 || !entry.pending_status.has_value()) {
    return;
  }
  if (entry.notify_attempts >= config_->notify_retry_cap) {
    // Retry cap hit: give up gracefully. The request stays un-applied and
    // the destination may issue a fresh decision on a later packet.
    entry.pending_status.reset();
    return;
  }
  // Exponential backoff: timeout * 2^attempts (shift capped well below
  // overflow; the retry cap keeps attempts small anyway).
  const int shift = static_cast<int>(std::min<std::uint32_t>(
      entry.notify_attempts, 16));
  const sim::Time delay =
      sim::Time::from_ticks(config_->notify_retry_timeout.ticks() << shift);
  entry.notify_retry_event = services_->sim->after(
      delay, sim::EventTag::notify_retry(id_, entry.id));
}

void Node::adopt_event(const sim::EventTag& tag, sim::EventId id) {
  if (tag.kind == sim::EventTag::Kind::kHelloTick) {
    hello_event_ = id;
  } else if (tag.kind == sim::EventTag::Kind::kNotifyRetry) {
    flows_.ensure(static_cast<FlowId>(tag.b)).notify_retry_event = id;
  }
}

void Node::cancel_notify_retry(FlowEntry& entry) {
  if (entry.notify_retry_event != 0) {
    services_->sim->cancel(entry.notify_retry_event);
    entry.notify_retry_event = 0;
  }
}

void Node::handle_notification(NotificationBody body) {
  FlowEntry* entry = flows_.find(body.flow_id);
  if (entry == nullptr) {
    services_->events->on_drop(*this, PacketType::kNotification,
                               DropReason::kUnknownFlow);
    return;
  }
  if (body.flow_source == id_) {
    // Stale/duplicate filter: retransmissions (and reordered copies after
    // a path repair) of decisions at or below the last applied one are
    // ignored so the status can only move forward, never flip back.
    if (body.decision_seq != 0 &&
        body.decision_seq <= entry->notify_applied_seq) {
      services_->events->on_drop(*this, PacketType::kNotification,
                                DropReason::kStaleNotify);
      return;
    }
    // Unstamped (legacy) notifications bypass the filter without
    // resetting the monotone counter.
    if (body.decision_seq != 0) entry->notify_applied_seq = body.decision_seq;
    // Source updates the flow's mobility status; the next data packet
    // carries it to every node on the path.
    entry->mobility_enabled = body.enable;
    services_->events->on_notification_at_source(*this, body);
    return;
  }
  if (entry->prev == kInvalidNode) return;  // path broke upstream
  Packet pkt = stamp(PacketType::kNotification, entry->prev,
                     config_->notification_bits);
  pkt.body = body;
  transmit(std::move(pkt), entry->prev, lookup(entry->prev).position);
}

}  // namespace imobif::net
