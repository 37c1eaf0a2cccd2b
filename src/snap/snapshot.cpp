#include "snap/snapshot.hpp"

#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "exp/scenario_io.hpp"
#include "mob/driver.hpp"
#include "net/fault.hpp"
#include "net/flow_table.hpp"
#include "net/neighbor_table.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/event_tag.hpp"
#include "snap/codec.hpp"
#include "snap/state_hash.hpp"
#include "traffic/generator.hpp"
#include "util/config.hpp"
#include "util/units.hpp"

namespace imobif::snap {

// --- field lists, one per persisted record (codec.hpp) ---

/// Simulated times lie in [0, 2^62) ticks: beyond any run, and a run
/// horizon added to one cannot overflow. A Time has no setter, so its list
/// is the one written twice.
template <class Self>
void fields(Archive<Self, false>& ar, sim::Time& time) {
  ar.i64(time.ticks());
}

inline void fields(StateReader& r, sim::Time& time) {
  const std::int64_t ticks = r.i64();
  if (ticks < 0 || ticks >= std::int64_t{1} << 62) {
    r.fail("time of " + std::to_string(ticks) + " ticks out of range");
  }
  time = sim::Time::from_ticks(ticks);
}

template <class Ar>
void fields(Ar& ar, net::MobilityAggregate& agg) {
  ar.f64(agg.bits_mob);
  ar.f64(agg.resi_mob);
  ar.f64(agg.bits_nomob);
  ar.f64(agg.resi_nomob);
}

template <class Ar>
void strategy(Ar& ar, net::StrategyId& id) {
  ar.enumeration(id, net::StrategyId::kMaxLifetime, "strategy id");
}

template <class Ar>
void fields(Ar& ar, net::FlowSpec& spec) {
  ar.u64(spec.id);
  ar.u64(spec.source);
  ar.u64(spec.destination);
  ar.f64(spec.length_bits);
  ar.f64(spec.packet_bits);
  ar.f64(spec.rate_bps);
  strategy(ar, spec.strategy);
  ar.boolean(spec.initially_enabled);
  ar.f64(spec.length_estimate_factor);
}

// Wire format of a packet: its type byte is also its body's variant index
// (the field list rejects a mismatch), and both are snapshot bytes. Pin
// every value so dropping or reordering a PacketType cannot silently
// re-number the bodies after it. RREQ/RREP (3, 4) have no producer in the
// library but keep their slots and field lists for that reason: recruit
// packets stay at 5.
using PacketBody = decltype(net::Packet::body);
template <net::PacketType type>
using BodyOf =
    std::variant_alternative_t<static_cast<std::size_t>(type), PacketBody>;
static_assert(std::variant_size_v<PacketBody> == 6);
static_assert(std::is_same_v<BodyOf<net::PacketType::kHello>, net::HelloBody>);
static_assert(std::is_same_v<BodyOf<net::PacketType::kData>, net::DataBody>);
static_assert(std::is_same_v<BodyOf<net::PacketType::kNotification>,
                             net::NotificationBody>);
static_assert(std::is_same_v<BodyOf<net::PacketType::kRouteRequest>,
                             net::RouteRequestBody>);
static_assert(std::is_same_v<BodyOf<net::PacketType::kRouteReply>,
                             net::RouteReplyBody>);
static_assert(
    std::is_same_v<BodyOf<net::PacketType::kRecruit>, net::RecruitBody>);
static_assert(static_cast<std::uint8_t>(net::PacketType::kRecruit) == 5);

template <class Ar>
void fields(Ar& /*ar*/, net::HelloBody& /*hello*/) {}

template <class Ar>
void fields(Ar& ar, net::DataBody& data) {
  ar.u64(data.flow_id);
  ar.u64(data.source);
  ar.u64(data.destination);
  ar.u32(data.seq);
  ar.f64(data.payload_bits);
  ar.f64(data.residual_flow_bits);
  strategy(ar, data.strategy);
  ar.boolean(data.mobility_enabled);
  fields(ar, data.agg);
  ar.u32(data.hop_count);
  ar.boolean(data.sender_has_plan);
  ar.vec2(data.sender_target);
  ar.f64(data.sender_move_cost);
}

template <class Ar>
void fields(Ar& ar, net::NotificationBody& notify) {
  ar.u64(notify.flow_id);
  ar.u64(notify.flow_source);
  ar.boolean(notify.enable);
  fields(ar, notify.agg);
  ar.u32(notify.decision_seq);
  ar.u8(notify.attempt);
}

template <class Ar>
void fields(Ar& ar, net::RouteRequestBody& rreq) {
  ar.u64(rreq.origin);
  ar.u64(rreq.target);
  ar.u32(rreq.request_id);
  ar.u32(rreq.origin_seq);
  ar.u32(rreq.hop_count);
}

template <class Ar>
void fields(Ar& ar, net::RouteReplyBody& rrep) {
  ar.u64(rrep.origin);
  ar.u64(rrep.target);
  ar.u32(rrep.target_seq);
  ar.u32(rrep.hop_count);
}

template <class Ar>
void fields(Ar& ar, net::RecruitBody& recruit) {
  ar.u64(recruit.flow_id);
  ar.u64(recruit.flow_source);
  ar.u64(recruit.flow_destination);
  ar.u64(recruit.upstream);
  ar.u64(recruit.downstream);
  strategy(ar, recruit.strategy);
  ar.f64(recruit.residual_flow_bits);
  ar.boolean(recruit.mobility_enabled);
}

template <class Ar>
void fields(Ar& ar, net::SenderStamp& sender) {
  ar.u64(sender.id);
  ar.vec2(sender.position);
  ar.f64(sender.residual_energy);
}

template <class Ar>
void fields(Ar& ar, net::Packet& pkt) {
  ar.u8(pkt.type);
  fields(ar, pkt.sender);
  ar.u64(pkt.link_dest);
  ar.f64(pkt.size_bits);
  ar.alternative(pkt.body, "packet body");
  // PacketType and the body variant list share one order, so a packet's
  // type byte must equal its body index: handlers std::get the body the
  // type names.
  ar.require(static_cast<std::size_t>(pkt.type) == pkt.body.index(), [&] {
    return "packet type " + std::to_string(static_cast<int>(pkt.type)) +
           " does not match its body index " +
           std::to_string(pkt.body.index());
  });
  std::visit([&](auto& body) { fields(ar, body); }, pkt.body);
}

template <class Ar>
void fields(Ar& ar, net::FlowProgress& prog) {
  fields(ar, prog.spec);
  ar.f64(prog.emitted_bits);
  ar.f64(prog.delivered_bits);
  ar.u64(prog.packets_emitted);
  ar.u64(prog.packets_delivered);
  ar.u64(prog.notifications_from_dest);
  ar.u64(prog.notification_retries);
  ar.u64(prog.notifications_at_source);
  ar.u64(prog.recruits);
  ar.u64(prog.drops);
  ar.boolean(prog.emission_done);
  ar.boolean(prog.completed);
  ar.optional(prog.completion_time);
  ar.optional(prog.last_delivery_time);
}

template <class Ar>
void fields(Ar& ar, net::Medium::Counters& counters) {
  ar.u64(counters.broadcasts);
  ar.u64(counters.unicasts);
  ar.u64(counters.delivered);
  ar.u64(counters.dropped_out_of_range);
  ar.u64(counters.dropped_dead);
  ar.u64(counters.dropped_unknown);
  ar.u64(counters.dropped_injected);
  ar.u64(counters.dropped_faulted);
}
// result_io.cpp writes and reads the counters of a RunResult.
template void fields(StateWriter&, net::Medium::Counters&);
template void fields(StateReader&, net::Medium::Counters&);

template <class Ar>
void fields(Ar& ar, net::FaultInjector::LinkSnapshot& link) {
  ar.u64(link.key);
  ar.u64(link.packets);
  ar.boolean(link.bad);
}

template <class Ar>
void fields(Ar& ar, net::NeighborInfo& info) {
  ar.u64(info.id);
  ar.vec2(info.position);
  ar.f64(info.residual_energy);
  fields(ar, info.last_heard);
}

template <class Ar>
void fields(Ar& ar, net::FlowEntry& entry) {
  ar.u64(entry.id);
  ar.u64(entry.source);
  ar.u64(entry.destination);
  ar.u64(entry.prev);
  ar.u64(entry.next);
  ar.f64(entry.residual_bits);
  strategy(ar, entry.strategy);
  ar.boolean(entry.mobility_enabled);
  ar.optional(entry.target, kVec2);
  ar.u64(entry.packets_relayed);
  ar.f64(entry.moved_distance);
  ar.optional(entry.last_notify_seq,
              [](auto& a, std::uint32_t& seq) { a.u32(seq); });
  ar.optional(entry.pending_status,
              [](auto& a, bool& status) { a.boolean(status); });
  fields(ar, entry.notify_agg);
  ar.u32(entry.notify_decision_seq);
  ar.u32(entry.notify_attempts);
  ar.u32(entry.notify_applied_seq);
  ar.u32(entry.recruits_initiated);
}

template <class Ar>
void fields(Ar& ar, exp::RunOptions& options) {
  ar.boolean(options.stop_on_first_death);
  ar.f64(options.horizon_factor);
  ar.f64(options.horizon_slack_s);
  ar.boolean(options.multi_flow_blending);
  ar.list(options.extra_flows);
}

template <class Ar>
void fields(Ar& ar, exp::FlowInstance& instance) {
  ar.list(instance.positions, [](auto& a, geom::Vec2& p) { a.position(p); });
  ar.list(instance.energies, [](auto& a, util::Joules& e) {
    a.finite(e, "initial energy");
  });
  ar.require(instance.energies.size() == instance.positions.size(), [&] {
    return "instance has " + std::to_string(instance.positions.size()) +
           " positions but " + std::to_string(instance.energies.size()) +
           " energies";
  });
  ar.u64(instance.source);
  ar.u64(instance.destination);
  ar.f64(instance.flow_bits);
  ar.list(instance.initial_path, kU64);
  ar.u64(instance.mobility_seed);
  ar.u64(instance.traffic_seed);
}

template <class Ar>
void fields(Ar& ar, sim::EventTag& tag) {
  ar.enumeration(tag.kind, sim::EventTag::kLastKind, "event kind");
  ar.u64(tag.a);
  ar.u64(tag.b);
}

namespace {

using RngState = std::array<std::uint64_t, 4>;
constexpr auto kRngWords = [](auto& ar, RngState& words) {
  for (std::uint64_t& word : words) ar.u64(word);
};

/// The "meta" section: everything needed to rebuild the object graph.
struct Meta {
  std::string config;  ///< exp::to_config_string of the scenario
  core::MobilityMode mode = core::MobilityMode::kInformed;
  exp::RunOptions options;
  exp::FlowInstance instance;
  std::optional<RngState> sampler;
  util::Joules warmup_consumed{0.0};
  sim::Time flow_start = sim::Time::zero();
  bool in_chunk = false;
  sim::Time chunk_end = sim::Time::zero();
  bool done = false;
};

template <class Ar>
void fields(Ar& ar, Meta& meta) {
  ar.str(meta.config);
  ar.enumeration(meta.mode, core::MobilityMode::kInformed, "mobility mode");
  fields(ar, meta.options);
  fields(ar, meta.instance);
  ar.optional(meta.sampler, kRngWords);
  ar.f64(meta.warmup_consumed);
  fields(ar, meta.flow_start);
  ar.boolean(meta.in_chunk);
  fields(ar, meta.chunk_end);
  ar.boolean(meta.done);
}

/// A node's own values, read through the Node and Battery accessors and
/// written back through their restore calls.
struct NodeScalars {
  geom::Vec2 position;
  bool faulted = false;
  util::Meters total_moved;
  util::Joules initial;
  util::Joules residual;
  util::Joules consumed_transmit;
  util::Joules consumed_move;
  util::Joules consumed_other;
};

template <class Ar>
void fields(Ar& ar, NodeScalars& node) {
  ar.position(node.position);
  ar.boolean(node.faulted);
  ar.f64(node.total_moved);
  ar.finite(node.initial, "battery charge");
  ar.finite(node.residual, "battery charge");
  ar.f64(node.consumed_transmit);
  ar.f64(node.consumed_move);
  ar.f64(node.consumed_other);
}

/// One node of the "nodes" section as restore reads it. encode_dynamic
/// writes the two tables in place rather than copy them in.
struct NodeState {
  NodeScalars scalars;
  std::vector<net::NeighborInfo> neighbors;  ///< table order
  std::vector<net::FlowEntry> flows;         ///< flow-id order
};

template <class Ar>
void fields(Ar& ar, NodeState& node) {
  fields(ar, node.scalars);
  ar.list(node.neighbors);
  ar.list(node.flows);
}

/// One traffic generator of the "traffic" section.
struct GeneratorState {
  net::FlowId flow = net::kInvalidFlow;
  RngState rng{};
  std::vector<double> state;
};

template <class Ar>
void fields(Ar& ar, GeneratorState& gen) {
  ar.u64(gen.flow);
  kRngWords(ar, gen.rng);
  ar.list(gen.state, kF64);
}

/// One pending event of the "events" section as restore reads it, with
/// its in-flight packet inline when it is a delivery. encode_dynamic
/// writes the packet from the medium's slab rather than copy it in.
struct EventRecord {
  sim::Time when;
  sim::EventTag tag;
  net::Packet packet;
};

template <class Ar>
void fields(Ar& ar, EventRecord& event) {
  fields(ar, event.when);
  fields(ar, event.tag);
  if (event.tag.kind == sim::EventTag::Kind::kDeliver) {
    fields(ar, event.packet);
  }
}

// The dynamic sections move state through each layer's accessors, so they
// are walked twice: here, and in restore() below. Flattened so that the
// field lists inline into the walk: GCC otherwise stops inlining in this
// large function and calls a list once per neighbor entry, which made an
// encode ≈7 % slower.
template <class Sink>
[[gnu::flatten]] void encode_dynamic(Sink& ar, exp::InstanceRun& run) {
  net::Network& network = run.network();
  sim::Simulator& sim = network.simulator();

  ar.begin_section("sim");
  ar.record(sim.now());
  ar.u64(sim.executed_events());
  ar.end_section();

  ar.begin_section("network");
  ar.record(network.last_progress());
  std::optional<sim::Time> first_death = network.first_death_time();
  ar.optional(first_death);
  ar.u64(network.dead_node_count());
  ar.u64(network.total_data_drops());
  const std::vector<const net::FlowProgress*> progress =
      network.all_progress();
  ar.u64(progress.size());
  for (const net::FlowProgress* prog : progress) ar.record(*prog);
  ar.end_section();

  ar.begin_section("medium");
  ar.record(network.medium().counters());
  const net::FaultInjector* injector = network.medium().fault_injector();
  ar.boolean(injector != nullptr);
  if (injector != nullptr) {
    std::vector<net::FaultInjector::LinkSnapshot> links =
        injector->link_states();
    ar.list(links);
    ar.u64(injector->decisions());
    ar.u64(injector->drops());
  }
  ar.end_section();

  // Each node in NodeState's layout.
  ar.begin_section("nodes");
  ar.u64(network.node_count());
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    const net::Node& node = network.node(static_cast<net::NodeId>(i));
    const energy::Battery& battery = node.battery();
    ar.record(NodeScalars{node.position(), node.faulted(), node.total_moved(),
                          battery.initial(), battery.residual(),
                          battery.consumed_transmit(), battery.consumed_move(),
                          battery.consumed_other()});
    // The bytes of ar.list over the table's entries, read in place.
    const net::NeighborTable& neighbors = node.neighbors();
    ar.u64(neighbors.size());
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      ar.record(neighbors.entry(k));
    }
    // Most nodes carry no flow: skip the sorted copy for them.
    ar.u64(node.flows().size());
    if (node.flows().size() == 0) continue;
    for (const net::FlowEntry* entry : node.flows().all()) ar.record(*entry);
  }
  ar.end_section();

  ar.begin_section("policy");
  ar.u64(run.policy().movements_applied());
  ar.f64(run.policy().total_distance_moved());
  ar.u64(run.policy().recruits_initiated());
  ar.end_section();

  // Background motion: (rng, model state); the pending tick itself rides
  // in the events section like every other tagged event.
  ar.begin_section("mob");
  const mob::MotionDriver* motion = run.motion();
  ar.boolean(motion != nullptr);
  if (motion != nullptr) {
    for (const std::uint64_t word : motion->model().rng().state()) {
      ar.u64(word);
    }
    std::vector<double> model_state = motion->model().state();
    ar.list(model_state, kF64);
  }
  ar.end_section();

  // Traffic generators, in flow-id (map) order.
  ar.begin_section("traffic");
  const auto& generators = network.traffic_generators();
  ar.u64(generators.size());
  for (const auto& [flow_id, generator] : generators) {
    ar.record(GeneratorState{flow_id, generator->rng().state(),
                             generator->state()});
  }
  ar.end_section();

  // Each pending event in EventRecord's layout.
  ar.begin_section("events");
  const std::vector<sim::Event> pending = sim.pending();
  ar.u64(pending.size());
  for (const sim::Event& event : pending) {
    if (event.tag.kind == sim::EventTag::Kind::kCallback) {
      throw std::invalid_argument(
          "snapshot: pending event at t=" +
          std::to_string(event.when.seconds()) +
          "s is a test callback; only event records can be checkpointed");
    }
    ar.record(event.when);
    ar.record(event.tag);
    if (event.tag.kind == sim::EventTag::Kind::kDeliver) {
      ar.record(network.medium().packets().get(event.tag.packet));
    }
  }
  ar.end_section();
}

}  // namespace

std::string encode(exp::InstanceRun& run) {
  // Reserved up front: growing the buffer mid-encode costs more than the
  // encode. The paper's scenarios take 0.5-1 KB per node.
  StateWriter writer(1024 * (run.network().node_count() + 1));
  writer.begin_section("meta");
  writer.record(Meta{exp::to_config_string(run.params()), run.mode(),
                     run.options(), run.instance(), run.sampler_rng_state(),
                     run.warmup_consumed_j(), run.flow_start(), run.in_chunk(),
                     run.chunk_end(), run.done()});
  writer.end_section();
  encode_dynamic(writer, run);
  return std::move(writer).take();
}

void save(exp::InstanceRun& run, const std::string& path) {
  write_file_atomic(path, encode(run));
}

std::uint64_t state_hash(exp::InstanceRun& run) {
  StateHash hash;
  encode_dynamic(hash, run);
  return hash.digest();
}

std::uint64_t config_digest(const exp::ScenarioParams& params,
                            const exp::RunOptions& options) {
  StateHash hash;
  hash.str(exp::to_config_string(params));
  hash.record(options);
  return hash.digest();
}

std::string debug_json(exp::InstanceRun& run) {
  return debug_dump(encode(run));
}

namespace {

/// Reads the "meta" section; shared by restore() and restore_fresh().
Meta read_meta(StateReader& r, exp::ScenarioParams& params) {
  r.begin_section("meta");
  Meta meta = r.get<Meta>();
  r.end_section();
  exp::apply_config(util::Config::from_string(meta.config), params);
  return meta;
}

}  // namespace

std::unique_ptr<exp::InstanceRun> restore_fresh(const std::string& data) {
  StateReader r(data);
  exp::ScenarioParams params;
  const Meta meta = read_meta(r, params);
  std::unique_ptr<exp::InstanceRun> run = exp::InstanceRun::create(
      meta.instance, params, meta.mode, meta.options);
  if (meta.sampler.has_value()) run->set_sampler_rng_state(*meta.sampler);
  return run;
}

std::unique_ptr<exp::InstanceRun> restore(const std::string& data) {
  StateReader r(data);
  exp::ScenarioParams params;
  const Meta meta = read_meta(r, params);

  std::unique_ptr<exp::InstanceRun> run = exp::InstanceRun::create_shell(
      meta.instance, params, meta.mode, meta.options);
  if (meta.sampler.has_value()) run->set_sampler_rng_state(*meta.sampler);
  run->restore_run_state(meta.warmup_consumed, meta.flow_start, meta.in_chunk,
                         meta.chunk_end, meta.done);

  net::Network& network = run->network();
  sim::Simulator& sim = network.simulator();

  // Clock first: at() rejects scheduling in the past, so every restored
  // event below needs `now` already seated.
  r.begin_section("sim");
  const sim::Time now = r.get<sim::Time>();
  sim.restore_clock(now, static_cast<std::size_t>(r.u64()));
  r.end_section();

  r.begin_section("network");
  network.restore_last_progress(r.get<sim::Time>());
  std::optional<sim::Time> first_death;
  r.optional(first_death);
  network.restore_first_death(first_death);
  network.restore_dead_nodes(static_cast<std::size_t>(r.u64()));
  network.restore_total_data_drops(r.u64());
  for (std::uint64_t i = r.count<net::FlowProgress>(); i > 0; --i) {
    network.restore_flow_progress(r.get<net::FlowProgress>());
  }
  r.end_section();

  r.begin_section("medium");
  network.medium().restore_counters(r.get<net::Medium::Counters>());
  if (r.boolean()) {
    net::FaultInjector& injector =
        network.medium().restore_fault_injector(params.fault);
    std::vector<net::FaultInjector::LinkSnapshot> links;
    r.list(links);
    for (const net::FaultInjector::LinkSnapshot& link : links) {
      injector.restore_link(link.key, link.packets, link.bad);
    }
    const std::uint64_t decisions = r.u64();
    injector.restore_counts(decisions, r.u64());
  }
  r.end_section();

  r.begin_section("nodes");
  const std::uint64_t node_count = r.count<NodeState>();
  if (node_count != network.node_count()) {
    r.fail("node count mismatch (snapshot " + std::to_string(node_count) +
           ", rebuilt network " + std::to_string(network.node_count()) +
           ")");
  }
  for (std::uint64_t i = 0; i < node_count; ++i) {
    net::Node& node = network.node(static_cast<net::NodeId>(i));
    NodeState state = r.get<NodeState>();
    // The table takes the list as is once its order is verified.
    for (std::size_t n = 1; n < state.neighbors.size(); ++n) {
      if (state.neighbors[n].id <= state.neighbors[n - 1].id) {
        r.fail("neighbor ids of node " + std::to_string(i) +
               " are not strictly ascending");
      }
    }
    const NodeScalars& own = state.scalars;
    node.set_position(own.position);
    node.restore_faulted(own.faulted);
    node.restore_total_moved(own.total_moved);
    node.battery().restore(own.initial, own.residual, own.consumed_transmit,
                           own.consumed_move, own.consumed_other);
    node.neighbors().restore_entries(state.neighbors);
    for (const net::FlowEntry& entry : state.flows) {
      node.flows().ensure(entry.id) = entry;
    }
  }
  r.end_section();

  r.begin_section("policy");
  const std::uint64_t movements = r.u64();
  const util::Meters distance_moved{r.f64()};
  run->policy().restore_counters(movements, distance_moved, r.u64());
  r.end_section();

  r.begin_section("mob");
  if (r.boolean()) {
    mob::MotionDriver* motion = run->motion();
    if (motion == nullptr) {
      r.fail("motion state but the scenario has no mobility model");
    }
    motion->model().rng().set_state(r.get<RngState>(kRngWords));
    std::vector<double> model_state;
    r.list(model_state, kF64);
    motion->model().restore_state(model_state);
  }
  r.end_section();

  r.begin_section("traffic");
  for (std::uint64_t i = r.count<GeneratorState>(); i > 0; --i) {
    const GeneratorState gen = r.get<GeneratorState>();
    network.restore_traffic_state(gen.flow, gen.rng, gen.state);
  }
  r.end_section();

  // Events last, in encoded (time, sequence) order: the queue hands out
  // fresh sequence numbers in insertion order, so same-tick events keep
  // their exact relative ordering. Each decoded record goes back through
  // the network's one scheduling path; an in-flight packet is stored in
  // the medium's slab first so the record can name its slot.
  r.begin_section("events");
  EventRecord event;  // reused: a packet is read only for a delivery
  for (std::uint64_t i = r.count<EventRecord>(); i > 0; --i) {
    fields(r, event);
    event.tag.packet = event.tag.kind == sim::EventTag::Kind::kDeliver
                           ? network.medium().packets().put(event.packet)
                           : sim::EventTag::kNoPacket;
    try {
      network.restore_event(event.when, event.tag);
    } catch (const std::runtime_error& e) {
      r.fail(e.what());
    }
  }
  r.end_section();

  if (!r.at_end()) r.fail("trailing bytes after event section");
  return run;
}

std::unique_ptr<exp::InstanceRun> restore_file(const std::string& path) {
  return restore(read_file(path));
}

}  // namespace imobif::snap
