#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

// Network owns its traffic generators; the net->traffic seam is deliberate
// (DESIGN.md section 14) and a layering refactor is out of scope for the
// zero-runtime-change static-analysis PR.
// lint:allow(layer-violation): deliberate net->traffic seam
#include "traffic/generator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace imobif::net {

using util::Bits;
using util::BitsPerSecond;
using util::Joules;
using util::Seconds;

Network::Network(NetworkConfig config)
    : config_(config),
      radio_(config.radio),
      medium_(sim_, config.medium),
      services_{.sim = &sim_,
                .medium = &medium_,
                .radio = &radio_,
                .events = this,
                .store = &store_} {
  sim_.set_sink(this);
}

Network::~Network() = default;

Node& Network::add_node(geom::Vec2 position, Joules initial_energy) {
  const auto id = static_cast<NodeId>(nodes_.size());
  [[maybe_unused]] const NodeStore::Index slot =
      store_.add(position, initial_energy);
  IMOBIF_ASSERT(slot == id, "NodeStore slots must track dense node ids");
  nodes_.push_back(std::make_unique<Node>(id, position, initial_energy,
                                          services_, config_.node));
  medium_.attach(*nodes_.back());
  return *nodes_.back();
}

Node& Network::node(NodeId id) {
  if (id >= nodes_.size()) throw std::out_of_range("Network::node: bad id");
  return *nodes_[id];
}

const Node& Network::node(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("Network::node: bad id");
  return *nodes_[id];
}

void Network::set_routing(std::unique_ptr<RoutingProtocol> routing) {
  routing_ = std::move(routing);
  services_.routing = routing_.get();
}

void Network::set_policy(MobilityPolicy* policy) { services_.policy = policy; }

void Network::start_hellos() {
  for (auto& n : nodes_) n->start_hello();
}

void Network::warmup(Seconds warmup) {
  start_hellos();
  sim_.run(sim_.now() + sim::Time::from_seconds(warmup.value()));
}

void Network::start_flow(const FlowSpec& spec) {
  if (spec.id == kInvalidFlow || spec.source >= nodes_.size() ||
      spec.destination >= nodes_.size() || spec.source == spec.destination) {
    throw std::invalid_argument("start_flow: invalid spec");
  }
  if (spec.length_bits <= Bits{0.0} || spec.packet_bits <= Bits{0.0} ||
      spec.rate_bps <= BitsPerSecond{0.0}) {
    throw std::invalid_argument("start_flow: non-positive sizes");
  }
  auto [it, inserted] = flows_.emplace(spec.id, FlowProgress{});
  if (!inserted) throw std::invalid_argument("start_flow: duplicate flow id");
  it->second.spec = spec;

  // The source's flow entry carries the authoritative residual length and
  // the current mobility status (flipped by notifications).
  Node& src = node(spec.source);
  FlowEntry& entry = src.flows().ensure(spec.id);
  entry.source = spec.source;
  entry.destination = spec.destination;
  entry.strategy = spec.strategy;
  entry.residual_bits = spec.length_bits;
  entry.mobility_enabled = spec.initially_enabled;

  if (config_.traffic.enabled()) {
    // Per-flow generator stream forked from the instance's traffic seed:
    // flow id keys the fork so multi-flow runs stay order-independent.
    std::uint64_t fork = config_.traffic_seed ^
                         (0x9e3779b97f4a7c15ULL * (spec.id + 1));
    traffic_.emplace(spec.id, traffic::make_generator(config_.traffic,
                                                      util::splitmix64(fork)));
  }
  const Seconds interval = emission_interval(spec.id, spec);
  sim_.after(sim::Time::from_seconds(interval.value()),
             sim::EventTag::emit_packet(spec.id));
}

Seconds Network::emission_interval(FlowId id, const FlowSpec& spec) {
  const Seconds base = spec.packet_bits / spec.rate_bps;
  const auto it = traffic_.find(id);
  if (it == traffic_.end()) return base;
  return it->second->next_interval(base);
}

void Network::restore_traffic_state(
    FlowId id, const std::array<std::uint64_t, 4>& rng_state,
    const std::vector<double>& state) {
  if (!config_.traffic.enabled()) {
    throw std::invalid_argument(
        "restore_traffic_state: network has no traffic model");
  }
  auto generator = traffic::make_generator(config_.traffic, 1);
  generator->rng().set_state(rng_state);
  generator->restore_state(state);
  traffic_.insert_or_assign(id, std::move(generator));
}

void Network::emit_packet(FlowId id) {
  auto& prog = flows_.at(id);
  const FlowSpec& spec = prog.spec;
  Node& src = node(spec.source);
  FlowEntry* entry = src.flows().find(id);
  if (!src.alive() || entry == nullptr) {
    prog.emission_done = true;
    return;
  }
  if (entry->residual_bits <= Bits{0.0}) {
    prog.emission_done = true;
    return;
  }
  const Bits bits = util::min(spec.packet_bits, entry->residual_bits);
  entry->residual_bits -= bits;

  DataBody data;
  data.flow_id = id;
  data.source = spec.source;
  data.destination = spec.destination;
  data.seq = static_cast<std::uint32_t>(prog.packets_emitted);
  data.payload_bits = bits;
  data.residual_flow_bits =
      entry->residual_bits * spec.length_estimate_factor;
  data.strategy = spec.strategy;
  data.mobility_enabled = entry->mobility_enabled;

  ++prog.packets_emitted;
  prog.emitted_bits += bits;
  // originate_data() adopts the header's residual estimate into the source's
  // flow entry, but the source must keep tracking the *true* residual: with
  // an estimate factor != 1 the header value would otherwise be fed back
  // into the next packet's estimate, compounding the factor every packet
  // until the estimate overflows to infinity.
  const Bits true_residual_bits = entry->residual_bits;
  src.originate_data(data);
  entry->residual_bits = true_residual_bits;

  const Seconds interval = emission_interval(id, spec);
  sim_.after(sim::Time::from_seconds(interval.value()),
             sim::EventTag::emit_packet(id));
}

const FlowProgress& Network::progress(FlowId id) const {
  return flows_.at(id);
}

void Network::restore_flow_progress(const FlowProgress& prog) {
  auto [it, inserted] = flows_.emplace(prog.spec.id, prog);
  if (!inserted) {
    throw std::invalid_argument(
        "restore_flow_progress: duplicate flow id");
  }
}

void Network::dispatch(const sim::Event& ev) {
  using Kind = sim::EventTag::Kind;
  const sim::EventTag& tag = ev.tag;
  switch (tag.kind) {
    case Kind::kDeliver:
      medium_.deliver(static_cast<NodeId>(tag.a), tag.packet);
      return;
    case Kind::kHelloTick:
      nodes_[tag.a]->hello_tick();
      return;
    case Kind::kEmitPacket:
      emit_packet(static_cast<FlowId>(tag.a));
      return;
    case Kind::kNotifyRetry:
      nodes_[tag.a]->notify_retry_tick(static_cast<FlowId>(tag.b));
      return;
    case Kind::kFaultSet:
      if (Node* n = medium_.find_node(static_cast<NodeId>(tag.a))) {
        n->set_faulted(tag.b != 0);
      }
      return;
    case Kind::kMobTick:
      if (motion_sink_ == nullptr) break;
      motion_sink_->dispatch(ev);
      return;
    case Kind::kCallback:
      break;
  }
  throw std::logic_error("Network::dispatch: no handler for event kind " +
                         std::to_string(static_cast<int>(tag.kind)));
}

void Network::restore_event(sim::Time when, const sim::EventTag& tag) {
  using Kind = sim::EventTag::Kind;
  const bool node_event = tag.kind == Kind::kHelloTick ||
                          tag.kind == Kind::kNotifyRetry ||
                          tag.kind == Kind::kDeliver;
  const bool runnable =
      tag.kind != Kind::kCallback && tag.kind <= sim::EventTag::kLastKind &&
      (!node_event || tag.a < nodes_.size()) &&
      (tag.kind != Kind::kEmitPacket ||
       flows_.count(static_cast<FlowId>(tag.a)) != 0) &&
      (tag.kind != Kind::kMobTick || motion_sink_ != nullptr);
  if (!runnable) {
    throw std::runtime_error(
        "restore_event: this network cannot execute event kind " +
        std::to_string(static_cast<int>(tag.kind)) + " (a=" +
        std::to_string(tag.a) + ")");
  }
  if (tag.kind == Kind::kDeliver) {
    const auto receiver = static_cast<NodeId>(tag.a);
    sim_.fanout(when, tag.packet, {&receiver, 1});
    return;
  }
  const sim::EventId id = sim_.at(when, tag);
  if (node_event) nodes_[tag.a]->adopt_event(tag, id);
}

std::vector<const FlowProgress*> Network::all_progress() const {
  // Sorted by flow id for deterministic multi-flow reporting and encoding.
  std::vector<const FlowProgress*> out;
  out.reserve(flows_.size());
  // lint:allow(unordered-iteration): extract-then-sort; order fixed below
  for (const auto& [id, prog] : flows_) out.push_back(&prog);
  std::sort(out.begin(), out.end(),
            [](const FlowProgress* a, const FlowProgress* b) {
              return a->spec.id < b->spec.id;
            });
  return out;
}

bool Network::all_flows_complete() const {
  if (flows_.empty()) return true;
  // lint:allow(unordered-iteration): all_of is a commutative bool fold
  return std::all_of(flows_.begin(), flows_.end(),
                     [](const auto& kv) { return kv.second.completed; });
}

bool Network::flow_loop_done(sim::Time horizon,
                             sim::Time stall_window) const {
  return sim_.now() >= horizon || all_flows_complete() ||
         (stop_on_first_death_ && first_death_time_.has_value()) ||
         sim_.now() - last_progress_ > stall_window;
}

Seconds Network::run_flows(Seconds horizon_s, Seconds stall_window_s) {
  const sim::Time start = sim_.now();
  const sim::Time horizon =
      start + sim::Time::from_seconds(horizon_s.value());
  const sim::Time stall_window =
      sim::Time::from_seconds(stall_window_s.value());
  last_progress_ = sim_.now();

  while (!flow_loop_done(horizon, stall_window)) {
    sim_.run(std::min(horizon, sim_.now() + kFlowChunk));
    if (sim_.pending_events() == 0) break;
  }
  return Seconds{(sim_.now() - start).seconds()};
}

Joules Network::total_transmit_energy() const {
  Joules sum{0.0};
  for (const auto& n : nodes_) sum += n->battery().consumed_transmit();
  return sum;
}

Joules Network::total_movement_energy() const {
  Joules sum{0.0};
  for (const auto& n : nodes_) sum += n->battery().consumed_move();
  return sum;
}

Joules Network::total_consumed_energy() const {
  Joules sum{0.0};
  for (const auto& n : nodes_) sum += n->battery().consumed_total();
  return sum;
}

std::vector<geom::Vec2> Network::positions() const {
  std::vector<geom::Vec2> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n->position());
  return out;
}

void Network::on_delivered(Node& dest, const DataBody& data) {
  auto it = flows_.find(data.flow_id);
  if (it == flows_.end()) return;
  FlowProgress& prog = it->second;
  prog.delivered_bits += data.payload_bits;
  ++prog.packets_delivered;
  prog.last_delivery_time = sim_.now();
  last_progress_ = sim_.now();
  if (!prog.completed &&
      prog.delivered_bits >= prog.spec.length_bits - Bits{1e-9}) {
    prog.completed = true;
    prog.completion_time = sim_.now();
  }
  if (all_flows_complete()) sim_.stop();
  if (tap_ != nullptr) tap_->on_delivered(dest, data);
}

void Network::on_notification_initiated(Node& dest,
                                        const NotificationBody& body) {
  auto it = flows_.find(body.flow_id);
  if (it != flows_.end()) ++it->second.notifications_from_dest;
  if (tap_ != nullptr) tap_->on_notification_initiated(dest, body);
}

void Network::on_notification_retry(Node& dest,
                                    const NotificationBody& body) {
  auto it = flows_.find(body.flow_id);
  if (it != flows_.end()) ++it->second.notification_retries;
  if (tap_ != nullptr) tap_->on_notification_retry(dest, body);
}

void Network::on_notification_at_source(Node& source,
                                        const NotificationBody& body) {
  auto it = flows_.find(body.flow_id);
  if (it != flows_.end()) ++it->second.notifications_at_source;
  if (tap_ != nullptr) tap_->on_notification_at_source(source, body);
}

void Network::on_node_depleted(Node& node) {
  ++dead_nodes_;
  if (!first_death_time_.has_value()) first_death_time_ = sim_.now();
  if (stop_on_first_death_) sim_.stop();
  if (tap_ != nullptr) tap_->on_node_depleted(node);
}

void Network::on_recruited(Node& recruit, const RecruitBody& body) {
  auto it = flows_.find(body.flow_id);
  if (it != flows_.end()) ++it->second.recruits;
  if (tap_ != nullptr) tap_->on_recruited(recruit, body);
}

void Network::on_drop(Node& where, PacketType type, DropReason why) {
  // Attributing a drop to a specific flow is impossible without the packet
  // body; data drops are tracked globally per network instead.
  if (type == PacketType::kData) ++total_data_drops_;
  if (tap_ != nullptr) tap_->on_drop(where, type, why);
}

}  // namespace imobif::net
