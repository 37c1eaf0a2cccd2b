#include "snap/snapshot.hpp"

#include <array>
#include <cmath>
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
#include "traffic/generator.hpp"
#include "snap/state_hash.hpp"
#include "util/config.hpp"
#include "util/units.hpp"

namespace imobif::snap {

namespace {

// Smallest encoding of one element of each decoded list (the element's
// unconditional fields), for bounding untrusted counts with
// StateReader::count before anything is allocated.
constexpr std::size_t kMinFlowSpec =
    7 * kEncodedWord + kEncodedU8 + kEncodedBool;
constexpr std::size_t kMinPosition = 2 * kEncodedWord;
constexpr std::size_t kMinFlowProgress =
    kMinFlowSpec + 9 * kEncodedWord + 4 * kEncodedBool;
constexpr std::size_t kMinLink = 2 * kEncodedWord + kEncodedBool;
constexpr std::size_t kMinNode = 10 * kEncodedWord + kEncodedBool;
constexpr std::size_t kMinNeighbor = 5 * kEncodedWord;
constexpr std::size_t kMinFlowEntry = 12 * kEncodedWord + kEncodedU8 +
                                      4 * kEncodedBool + 4 * kEncodedU32;
constexpr std::size_t kMinGenerator = 6 * kEncodedWord;
constexpr std::size_t kMinEvent = 3 * kEncodedWord + kEncodedU8;

// --- range checks on decoded values that restore hands to layers whose
// contracts assume them (the event queue, Time arithmetic, the grid index,
// Battery::restore). A snapshot is untrusted input: a value outside these
// ranges is a corrupt file, rejected with its byte offset. ---

/// Simulated times lie in [0, 2^62) ticks: beyond any run, and a run
/// horizon added to one cannot overflow.
constexpr std::int64_t kMaxTicks = std::int64_t{1} << 62;
/// Node coordinates the grid index can map to cells, in meters.
constexpr double kMaxCoordinate = 1e9;

sim::Time decode_time(StateReader& r) {
  const std::int64_t ticks = r.i64();
  if (ticks < 0 || ticks >= kMaxTicks) {
    r.fail("time of " + std::to_string(ticks) + " ticks out of range");
  }
  return sim::Time::from_ticks(ticks);
}

geom::Vec2 decode_position(StateReader& r) {
  geom::Vec2 p;
  p.x = r.f64();
  p.y = r.f64();
  // Written so that NaN fails too.
  if (!(std::abs(p.x) <= kMaxCoordinate && std::abs(p.y) <= kMaxCoordinate)) {
    r.fail("node position out of range");
  }
  return p;
}

double decode_finite(StateReader& r, const char* what) {
  const double v = r.f64();
  if (!std::isfinite(v)) r.fail(std::string(what) + " is not finite");
  return v;
}

// --- shared encode templates (Sink = StateWriter or StateHash) ---

template <class Sink>
void encode_agg(Sink& s, const net::MobilityAggregate& agg) {
  s.f64(agg.bits_mob.value());
  s.f64(agg.resi_mob.value());
  s.f64(agg.bits_nomob.value());
  s.f64(agg.resi_nomob.value());
}

net::MobilityAggregate decode_agg(StateReader& r) {
  net::MobilityAggregate agg;
  agg.bits_mob = util::Bits{r.f64()};
  agg.resi_mob = util::Joules{r.f64()};
  agg.bits_nomob = util::Bits{r.f64()};
  agg.resi_nomob = util::Joules{r.f64()};
  return agg;
}

template <class Sink>
void encode_flow_spec(Sink& s, const net::FlowSpec& spec) {
  s.u64(spec.id);
  s.u64(spec.source);
  s.u64(spec.destination);
  s.f64(spec.length_bits.value());
  s.f64(spec.packet_bits.value());
  s.f64(spec.rate_bps.value());
  s.u8(static_cast<std::uint8_t>(spec.strategy));
  s.boolean(spec.initially_enabled);
  s.f64(spec.length_estimate_factor);
}

net::StrategyId decode_strategy(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(net::StrategyId::kMaxLifetime)) {
    throw std::runtime_error("snapshot: invalid strategy id " +
                             std::to_string(raw));
  }
  return static_cast<net::StrategyId>(raw);
}

net::FlowSpec decode_flow_spec(StateReader& r) {
  net::FlowSpec spec;
  spec.id = static_cast<net::FlowId>(r.u64());
  spec.source = static_cast<net::NodeId>(r.u64());
  spec.destination = static_cast<net::NodeId>(r.u64());
  spec.length_bits = util::Bits{r.f64()};
  spec.packet_bits = util::Bits{r.f64()};
  spec.rate_bps = util::BitsPerSecond{r.f64()};
  spec.strategy = decode_strategy(r.u8());
  spec.initially_enabled = r.boolean();
  spec.length_estimate_factor = r.f64();
  return spec;
}

// Wire format of a packet: its type byte is also its body's variant index
// (decode_packet rejects a mismatch), and both are snapshot bytes. Pin every
// value so dropping or reordering a PacketType cannot silently re-number the
// bodies after it. RREQ/RREP (3, 4) have no producer in the library but keep
// their slots and codec arms for that reason: recruit packets stay at 5.
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

template <class Sink>
void encode_packet(Sink& s, const net::Packet& pkt) {
  s.u8(static_cast<std::uint8_t>(pkt.type));
  s.u64(pkt.sender.id);
  s.f64(pkt.sender.position.x);
  s.f64(pkt.sender.position.y);
  s.f64(pkt.sender.residual_energy.value());
  s.u64(pkt.link_dest);
  s.f64(pkt.size_bits.value());
  s.u8(static_cast<std::uint8_t>(pkt.body.index()));
  if (const auto* data = std::get_if<net::DataBody>(&pkt.body)) {
    s.u64(data->flow_id);
    s.u64(data->source);
    s.u64(data->destination);
    s.u32(data->seq);
    s.f64(data->payload_bits.value());
    s.f64(data->residual_flow_bits.value());
    s.u8(static_cast<std::uint8_t>(data->strategy));
    s.boolean(data->mobility_enabled);
    encode_agg(s, data->agg);
    s.u32(data->hop_count);
    s.boolean(data->sender_has_plan);
    s.f64(data->sender_target.x);
    s.f64(data->sender_target.y);
    s.f64(data->sender_move_cost.value());
  } else if (const auto* notify =
                 std::get_if<net::NotificationBody>(&pkt.body)) {
    s.u64(notify->flow_id);
    s.u64(notify->flow_source);
    s.boolean(notify->enable);
    encode_agg(s, notify->agg);
    s.u32(notify->decision_seq);
    s.u8(notify->attempt);
  } else if (const auto* rreq =
                 std::get_if<net::RouteRequestBody>(&pkt.body)) {
    s.u64(rreq->origin);
    s.u64(rreq->target);
    s.u32(rreq->request_id);
    s.u32(rreq->origin_seq);
    s.u32(rreq->hop_count);
  } else if (const auto* rrep = std::get_if<net::RouteReplyBody>(&pkt.body)) {
    s.u64(rrep->origin);
    s.u64(rrep->target);
    s.u32(rrep->target_seq);
    s.u32(rrep->hop_count);
  } else if (const auto* recruit = std::get_if<net::RecruitBody>(&pkt.body)) {
    s.u64(recruit->flow_id);
    s.u64(recruit->flow_source);
    s.u64(recruit->flow_destination);
    s.u64(recruit->upstream);
    s.u64(recruit->downstream);
    s.u8(static_cast<std::uint8_t>(recruit->strategy));
    s.f64(recruit->residual_flow_bits.value());
    s.boolean(recruit->mobility_enabled);
  }
  // HelloBody carries no fields.
}

net::Packet decode_packet(StateReader& r) {
  net::Packet pkt;
  const std::uint8_t type = r.u8();
  pkt.sender.id = static_cast<net::NodeId>(r.u64());
  pkt.sender.position.x = r.f64();
  pkt.sender.position.y = r.f64();
  pkt.sender.residual_energy = util::Joules{r.f64()};
  pkt.link_dest = static_cast<net::NodeId>(r.u64());
  pkt.size_bits = util::Bits{r.f64()};
  const std::uint8_t body_index = r.u8();
  // PacketType and the body variant list share one order, so a packet's
  // type byte must equal its body index: handlers std::get the body the
  // type names.
  if (type != body_index) {
    r.fail("packet type " + std::to_string(type) +
           " does not match its body index " + std::to_string(body_index));
  }
  pkt.type = static_cast<net::PacketType>(type);
  switch (body_index) {
    case 0:
      pkt.body = net::HelloBody{};
      break;
    case 1: {
      net::DataBody data;
      data.flow_id = static_cast<net::FlowId>(r.u64());
      data.source = static_cast<net::NodeId>(r.u64());
      data.destination = static_cast<net::NodeId>(r.u64());
      data.seq = r.u32();
      data.payload_bits = util::Bits{r.f64()};
      data.residual_flow_bits = util::Bits{r.f64()};
      data.strategy = decode_strategy(r.u8());
      data.mobility_enabled = r.boolean();
      data.agg = decode_agg(r);
      data.hop_count = static_cast<std::uint16_t>(r.u32());
      data.sender_has_plan = r.boolean();
      data.sender_target.x = r.f64();
      data.sender_target.y = r.f64();
      data.sender_move_cost = util::Joules{r.f64()};
      pkt.body = data;
      break;
    }
    case 2: {
      net::NotificationBody notify;
      notify.flow_id = static_cast<net::FlowId>(r.u64());
      notify.flow_source = static_cast<net::NodeId>(r.u64());
      notify.enable = r.boolean();
      notify.agg = decode_agg(r);
      notify.decision_seq = r.u32();
      notify.attempt = r.u8();
      pkt.body = notify;
      break;
    }
    case 3: {
      net::RouteRequestBody rreq;
      rreq.origin = static_cast<net::NodeId>(r.u64());
      rreq.target = static_cast<net::NodeId>(r.u64());
      rreq.request_id = r.u32();
      rreq.origin_seq = r.u32();
      rreq.hop_count = static_cast<std::uint16_t>(r.u32());
      pkt.body = rreq;
      break;
    }
    case 4: {
      net::RouteReplyBody rrep;
      rrep.origin = static_cast<net::NodeId>(r.u64());
      rrep.target = static_cast<net::NodeId>(r.u64());
      rrep.target_seq = r.u32();
      rrep.hop_count = static_cast<std::uint16_t>(r.u32());
      pkt.body = rrep;
      break;
    }
    case 5: {
      net::RecruitBody recruit;
      recruit.flow_id = static_cast<net::FlowId>(r.u64());
      recruit.flow_source = static_cast<net::NodeId>(r.u64());
      recruit.flow_destination = static_cast<net::NodeId>(r.u64());
      recruit.upstream = static_cast<net::NodeId>(r.u64());
      recruit.downstream = static_cast<net::NodeId>(r.u64());
      recruit.strategy = decode_strategy(r.u8());
      recruit.residual_flow_bits = util::Bits{r.f64()};
      recruit.mobility_enabled = r.boolean();
      pkt.body = recruit;
      break;
    }
    default:
      throw std::runtime_error("snapshot: unknown packet body index " +
                               std::to_string(body_index));
  }
  return pkt;
}

template <class Sink>
void encode_meta(Sink& s, const exp::InstanceRun& run) {
  s.begin_section("meta");
  s.str(exp::to_config_string(run.params()));
  s.u8(static_cast<std::uint8_t>(run.mode()));

  const exp::RunOptions& options = run.options();
  s.boolean(options.stop_on_first_death);
  s.f64(options.horizon_factor);
  s.f64(options.horizon_slack_s.value());
  s.boolean(options.multi_flow_blending);
  s.u64(options.extra_flows.size());
  for (const net::FlowSpec& spec : options.extra_flows) {
    encode_flow_spec(s, spec);
  }

  const exp::FlowInstance& instance = run.instance();
  s.u64(instance.positions.size());
  for (const geom::Vec2& p : instance.positions) {
    s.f64(p.x);
    s.f64(p.y);
  }
  s.u64(instance.energies.size());
  for (const util::Joules e : instance.energies) s.f64(e.value());
  s.u64(instance.source);
  s.u64(instance.destination);
  s.f64(instance.flow_bits.value());
  s.u64(instance.initial_path.size());
  for (const net::NodeId id : instance.initial_path) s.u64(id);
  s.u64(instance.mobility_seed);
  s.u64(instance.traffic_seed);

  const auto& sampler = run.sampler_rng_state();
  s.boolean(sampler.has_value());
  if (sampler.has_value()) {
    for (const std::uint64_t word : *sampler) s.u64(word);
  }

  s.f64(run.warmup_consumed_j().value());
  s.i64(run.flow_start().ticks());
  s.boolean(run.in_chunk());
  s.i64(run.chunk_end().ticks());
  s.boolean(run.done());
  s.end_section();
}

template <class Sink>
void encode_dynamic(Sink& s, exp::InstanceRun& run) {
  net::Network& network = run.network();
  sim::Simulator& sim = network.simulator();

  s.begin_section("sim");
  s.i64(sim.now().ticks());
  s.u64(sim.executed_events());
  s.end_section();

  s.begin_section("network");
  s.i64(network.last_progress().ticks());
  const std::optional<sim::Time> first_death = network.first_death_time();
  s.boolean(first_death.has_value());
  if (first_death.has_value()) s.i64(first_death->ticks());
  s.u64(network.dead_node_count());
  s.u64(network.total_data_drops());
  const std::vector<const net::FlowProgress*> progress =
      network.all_progress();
  s.u64(progress.size());
  for (const net::FlowProgress* prog : progress) {
    encode_flow_spec(s, prog->spec);
    s.f64(prog->emitted_bits.value());
    s.f64(prog->delivered_bits.value());
    s.u64(prog->packets_emitted);
    s.u64(prog->packets_delivered);
    s.u64(prog->notifications_from_dest);
    s.u64(prog->notification_retries);
    s.u64(prog->notifications_at_source);
    s.u64(prog->recruits);
    s.u64(prog->drops);
    s.boolean(prog->emission_done);
    s.boolean(prog->completed);
    s.boolean(prog->completion_time.has_value());
    if (prog->completion_time.has_value()) {
      s.i64(prog->completion_time->ticks());
    }
    s.boolean(prog->last_delivery_time.has_value());
    if (prog->last_delivery_time.has_value()) {
      s.i64(prog->last_delivery_time->ticks());
    }
  }
  s.end_section();

  s.begin_section("medium");
  const net::Medium::Counters& counters = network.medium().counters();
  s.u64(counters.broadcasts);
  s.u64(counters.unicasts);
  s.u64(counters.delivered);
  s.u64(counters.dropped_out_of_range);
  s.u64(counters.dropped_dead);
  s.u64(counters.dropped_unknown);
  s.u64(counters.dropped_injected);
  s.u64(counters.dropped_faulted);
  const net::FaultInjector* injector = network.medium().fault_injector();
  s.boolean(injector != nullptr);
  if (injector != nullptr) {
    const std::vector<net::FaultInjector::LinkSnapshot> links =
        injector->link_states();
    s.u64(links.size());
    for (const net::FaultInjector::LinkSnapshot& link : links) {
      s.u64(link.key);
      s.u64(link.packets);
      s.boolean(link.bad);
    }
    s.u64(injector->decisions());
    s.u64(injector->drops());
  }
  s.end_section();

  s.begin_section("nodes");
  s.u64(network.node_count());
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    const net::Node& node = network.node(static_cast<net::NodeId>(i));
    s.f64(node.position().x);
    s.f64(node.position().y);
    s.boolean(node.faulted());
    s.f64(node.total_moved().value());

    const energy::Battery& battery = node.battery();
    s.f64(battery.initial().value());
    s.f64(battery.residual().value());
    s.f64(battery.consumed_transmit().value());
    s.f64(battery.consumed_move().value());
    s.f64(battery.consumed_other().value());

    const std::vector<net::NeighborInfo>& neighbors =
        node.neighbors().all_entries();
    s.u64(neighbors.size());
    for (const net::NeighborInfo& info : neighbors) {
      s.u64(info.id);
      s.f64(info.position.x);
      s.f64(info.position.y);
      s.f64(info.residual_energy.value());
      s.i64(info.last_heard.ticks());
    }

    // Most nodes carry no flow: skip the sorted copy for them.
    s.u64(node.flows().size());
    if (node.flows().size() == 0) continue;
    for (const net::FlowEntry* entry : node.flows().all()) {
      s.u64(entry->id);
      s.u64(entry->source);
      s.u64(entry->destination);
      s.u64(entry->prev);
      s.u64(entry->next);
      s.f64(entry->residual_bits.value());
      s.u8(static_cast<std::uint8_t>(entry->strategy));
      s.boolean(entry->mobility_enabled);
      s.boolean(entry->target.has_value());
      if (entry->target.has_value()) {
        s.f64(entry->target->x);
        s.f64(entry->target->y);
      }
      s.u64(entry->packets_relayed);
      s.f64(entry->moved_distance.value());
      s.boolean(entry->last_notify_seq.has_value());
      if (entry->last_notify_seq.has_value()) s.u32(*entry->last_notify_seq);
      s.boolean(entry->pending_status.has_value());
      if (entry->pending_status.has_value()) {
        s.boolean(*entry->pending_status);
      }
      encode_agg(s, entry->notify_agg);
      s.u32(entry->notify_decision_seq);
      s.u32(entry->notify_attempts);
      s.u32(entry->notify_applied_seq);
      s.u32(entry->recruits_initiated);
    }
  }
  s.end_section();

  s.begin_section("policy");
  s.u64(run.policy().movements_applied());
  s.f64(run.policy().total_distance_moved().value());
  s.u64(run.policy().recruits_initiated());
  s.end_section();

  // Background motion: (rng, model state); the pending tick itself rides
  // in the events section like every other tagged event.
  s.begin_section("mob");
  const mob::MotionDriver* motion = run.motion();
  s.boolean(motion != nullptr);
  if (motion != nullptr) {
    for (const std::uint64_t word : motion->model().rng().state()) {
      s.u64(word);
    }
    const std::vector<double> model_state = motion->model().state();
    s.u64(model_state.size());
    for (const double v : model_state) s.f64(v);
  }
  s.end_section();

  // Traffic generators, in flow-id (map) order.
  s.begin_section("traffic");
  const auto& generators = network.traffic_generators();
  s.u64(generators.size());
  for (const auto& [flow_id, generator] : generators) {
    s.u64(flow_id);
    for (const std::uint64_t word : generator->rng().state()) s.u64(word);
    const std::vector<double> gen_state = generator->state();
    s.u64(gen_state.size());
    for (const double v : gen_state) s.f64(v);
  }
  s.end_section();

  s.begin_section("events");
  const std::vector<sim::Event> pending = sim.pending();
  s.u64(pending.size());
  for (const sim::Event& event : pending) {
    const sim::EventTag& tag = event.tag;
    if (tag.kind == sim::EventTag::Kind::kCallback) {
      throw std::invalid_argument(
          "snapshot: pending event at t=" +
          std::to_string(event.when.seconds()) +
          "s is a test callback; only event records can be checkpointed");
    }
    s.i64(event.when.ticks());
    s.u8(static_cast<std::uint8_t>(tag.kind));
    s.u64(tag.a);
    s.u64(tag.b);
    if (tag.kind == sim::EventTag::Kind::kDeliver) {
      encode_packet(s, network.medium().packets().get(tag.packet));
    }
  }
  s.end_section();
}

}  // namespace

std::string encode(exp::InstanceRun& run) {
  // Reserved up front: growing the buffer mid-encode costs more than the
  // encode. The paper's scenarios take 0.5-1 KB per node.
  StateWriter writer(1024 * (run.network().node_count() + 1));
  encode_meta(writer, run);
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

std::string debug_json(exp::InstanceRun& run) {
  return debug_dump(encode(run));
}

namespace {

/// Everything the "meta" section carries; shared by restore() and
/// restore_fresh().
struct DecodedMeta {
  exp::ScenarioParams params;
  core::MobilityMode mode = core::MobilityMode::kInformed;
  exp::RunOptions options;
  exp::FlowInstance instance;
  bool has_sampler = false;
  std::array<std::uint64_t, 4> sampler_state{};
  util::Joules warmup_consumed{0.0};
  sim::Time flow_start = sim::Time::zero();
  bool in_chunk = false;
  sim::Time chunk_end = sim::Time::zero();
  bool done = false;
};

DecodedMeta decode_meta(StateReader& r) {
  DecodedMeta meta;
  r.begin_section("meta");
  {
    const std::string config_text = r.str();
    exp::apply_config(util::Config::from_string(config_text), meta.params);
  }
  const std::uint8_t mode_raw = r.u8();
  if (mode_raw > static_cast<std::uint8_t>(core::MobilityMode::kInformed)) {
    throw std::runtime_error("snapshot: invalid mobility mode " +
                             std::to_string(mode_raw));
  }
  meta.mode = static_cast<core::MobilityMode>(mode_raw);

  meta.options.stop_on_first_death = r.boolean();
  meta.options.horizon_factor = r.f64();
  meta.options.horizon_slack_s = util::Seconds{r.f64()};
  meta.options.multi_flow_blending = r.boolean();
  const std::uint64_t extra_count = r.count(kMinFlowSpec);
  meta.options.extra_flows.reserve(extra_count);
  for (std::uint64_t i = 0; i < extra_count; ++i) {
    meta.options.extra_flows.push_back(decode_flow_spec(r));
  }

  const std::uint64_t position_count = r.count(kMinPosition);
  meta.instance.positions.reserve(position_count);
  for (std::uint64_t i = 0; i < position_count; ++i) {
    meta.instance.positions.push_back(decode_position(r));
  }
  const std::uint64_t energy_count = r.count(kEncodedWord);
  meta.instance.energies.reserve(energy_count);
  if (energy_count != position_count) {
    r.fail("instance has " + std::to_string(position_count) +
           " positions but " + std::to_string(energy_count) + " energies");
  }
  for (std::uint64_t i = 0; i < energy_count; ++i) {
    meta.instance.energies.push_back(
        util::Joules{decode_finite(r, "initial energy")});
  }
  meta.instance.source = static_cast<net::NodeId>(r.u64());
  meta.instance.destination = static_cast<net::NodeId>(r.u64());
  meta.instance.flow_bits = util::Bits{r.f64()};
  const std::uint64_t path_count = r.count(kEncodedWord);
  meta.instance.initial_path.reserve(path_count);
  for (std::uint64_t i = 0; i < path_count; ++i) {
    meta.instance.initial_path.push_back(static_cast<net::NodeId>(r.u64()));
  }
  meta.instance.mobility_seed = r.u64();
  meta.instance.traffic_seed = r.u64();

  meta.has_sampler = r.boolean();
  if (meta.has_sampler) {
    for (std::uint64_t& word : meta.sampler_state) word = r.u64();
  }

  meta.warmup_consumed = util::Joules{r.f64()};
  meta.flow_start = decode_time(r);
  meta.in_chunk = r.boolean();
  meta.chunk_end = decode_time(r);
  meta.done = r.boolean();
  r.end_section();
  return meta;
}

}  // namespace

std::unique_ptr<exp::InstanceRun> restore_fresh(const std::string& data) {
  StateReader r(data);
  const DecodedMeta meta = decode_meta(r);
  std::unique_ptr<exp::InstanceRun> run = exp::InstanceRun::create(
      meta.instance, meta.params, meta.mode, meta.options);
  if (meta.has_sampler) run->set_sampler_rng_state(meta.sampler_state);
  return run;
}

std::unique_ptr<exp::InstanceRun> restore(const std::string& data) {
  StateReader r(data);
  const DecodedMeta meta = decode_meta(r);
  const exp::ScenarioParams& params = meta.params;

  std::unique_ptr<exp::InstanceRun> run = exp::InstanceRun::create_shell(
      meta.instance, params, meta.mode, meta.options);
  if (meta.has_sampler) run->set_sampler_rng_state(meta.sampler_state);
  run->restore_run_state(meta.warmup_consumed, meta.flow_start, meta.in_chunk,
                         meta.chunk_end, meta.done);

  net::Network& network = run->network();
  sim::Simulator& sim = network.simulator();

  // Clock first: at() rejects scheduling in the past, so every restored
  // event below needs `now` already seated.
  r.begin_section("sim");
  const sim::Time now = decode_time(r);
  const std::uint64_t executed = r.u64();
  sim.restore_clock(now, static_cast<std::size_t>(executed));
  r.end_section();

  r.begin_section("network");
  network.restore_last_progress(decode_time(r));
  const bool has_first_death = r.boolean();
  if (has_first_death) {
    network.restore_first_death(decode_time(r));
  } else {
    network.restore_first_death(std::nullopt);
  }
  network.restore_dead_nodes(static_cast<std::size_t>(r.u64()));
  network.restore_total_data_drops(r.u64());
  const std::uint64_t flow_count = r.count(kMinFlowProgress);
  for (std::uint64_t i = 0; i < flow_count; ++i) {
    net::FlowProgress prog;
    prog.spec = decode_flow_spec(r);
    prog.emitted_bits = util::Bits{r.f64()};
    prog.delivered_bits = util::Bits{r.f64()};
    prog.packets_emitted = r.u64();
    prog.packets_delivered = r.u64();
    prog.notifications_from_dest = r.u64();
    prog.notification_retries = r.u64();
    prog.notifications_at_source = r.u64();
    prog.recruits = r.u64();
    prog.drops = r.u64();
    prog.emission_done = r.boolean();
    prog.completed = r.boolean();
    const bool has_completion = r.boolean();
    if (has_completion) {
      prog.completion_time = decode_time(r);
    }
    const bool has_last_delivery = r.boolean();
    if (has_last_delivery) {
      prog.last_delivery_time = decode_time(r);
    }
    network.restore_flow_progress(prog);
  }
  r.end_section();

  r.begin_section("medium");
  net::Medium::Counters counters;
  counters.broadcasts = r.u64();
  counters.unicasts = r.u64();
  counters.delivered = r.u64();
  counters.dropped_out_of_range = r.u64();
  counters.dropped_dead = r.u64();
  counters.dropped_unknown = r.u64();
  counters.dropped_injected = r.u64();
  counters.dropped_faulted = r.u64();
  network.medium().restore_counters(counters);
  const bool has_injector = r.boolean();
  if (has_injector) {
    net::FaultInjector& injector =
        network.medium().restore_fault_injector(params.fault);
    const std::uint64_t link_count = r.count(kMinLink);
    for (std::uint64_t i = 0; i < link_count; ++i) {
      const std::uint64_t key = r.u64();
      const std::uint64_t packets = r.u64();
      const bool bad = r.boolean();
      injector.restore_link(key, packets, bad);
    }
    const std::uint64_t decisions = r.u64();
    const std::uint64_t drops = r.u64();
    injector.restore_counts(decisions, drops);
  }
  r.end_section();

  r.begin_section("nodes");
  const std::uint64_t node_count = r.count(kMinNode);
  if (node_count != network.node_count()) {
    throw std::runtime_error(
        "snapshot: node count mismatch (snapshot " +
        std::to_string(node_count) + ", rebuilt network " +
        std::to_string(network.node_count()) + ")");
  }
  for (std::uint64_t i = 0; i < node_count; ++i) {
    net::Node& node = network.node(static_cast<net::NodeId>(i));
    node.set_position(decode_position(r));
    node.restore_faulted(r.boolean());
    node.restore_total_moved(util::Meters{r.f64()});

    const util::Joules battery_initial{decode_finite(r, "battery charge")};
    const util::Joules battery_residual{decode_finite(r, "battery charge")};
    const util::Joules battery_tx{r.f64()};
    const util::Joules battery_move{r.f64()};
    const util::Joules battery_other{r.f64()};
    node.battery().restore(battery_initial, battery_residual, battery_tx,
                           battery_move, battery_other);

    // Encoded in table order, so the decoded list is the table once its
    // order is verified.
    const std::uint64_t neighbor_count = r.count(kMinNeighbor);
    std::vector<net::NeighborInfo> neighbors;
    neighbors.reserve(neighbor_count);
    for (std::uint64_t n = 0; n < neighbor_count; ++n) {
      net::NeighborInfo info;
      info.id = static_cast<net::NodeId>(r.u64());
      if (!neighbors.empty() && info.id <= neighbors.back().id) {
        r.fail("neighbor ids of node " + std::to_string(i) +
               " are not strictly ascending");
      }
      info.position.x = r.f64();
      info.position.y = r.f64();
      info.residual_energy = util::Joules{r.f64()};
      info.last_heard = decode_time(r);
      neighbors.push_back(info);
    }
    node.neighbors().restore_entries(std::move(neighbors));

    const std::uint64_t entry_count = r.count(kMinFlowEntry);
    for (std::uint64_t n = 0; n < entry_count; ++n) {
      const net::FlowId flow_id = static_cast<net::FlowId>(r.u64());
      net::FlowEntry& entry = node.flows().ensure(flow_id);
      entry.source = static_cast<net::NodeId>(r.u64());
      entry.destination = static_cast<net::NodeId>(r.u64());
      entry.prev = static_cast<net::NodeId>(r.u64());
      entry.next = static_cast<net::NodeId>(r.u64());
      entry.residual_bits = util::Bits{r.f64()};
      entry.strategy = decode_strategy(r.u8());
      entry.mobility_enabled = r.boolean();
      const bool has_target = r.boolean();
      if (has_target) {
        geom::Vec2 target;
        target.x = r.f64();
        target.y = r.f64();
        entry.target = target;
      }
      entry.packets_relayed = r.u64();
      entry.moved_distance = util::Meters{r.f64()};
      const bool has_last_notify = r.boolean();
      if (has_last_notify) entry.last_notify_seq = r.u32();
      const bool has_pending_status = r.boolean();
      if (has_pending_status) entry.pending_status = r.boolean();
      entry.notify_agg = decode_agg(r);
      entry.notify_decision_seq = r.u32();
      entry.notify_attempts = r.u32();
      entry.notify_applied_seq = r.u32();
      entry.recruits_initiated = r.u32();
    }
  }
  r.end_section();

  r.begin_section("policy");
  const std::uint64_t movements = r.u64();
  const util::Meters distance_moved{r.f64()};
  const std::uint64_t recruits = r.u64();
  run->policy().restore_counters(movements, distance_moved, recruits);
  r.end_section();

  r.begin_section("mob");
  const bool has_motion = r.boolean();
  if (has_motion) {
    mob::MotionDriver* motion = run->motion();
    if (motion == nullptr) {
      throw std::runtime_error(
          "snapshot: motion state but the scenario has no mobility model");
    }
    std::array<std::uint64_t, 4> rng_state{};
    for (std::uint64_t& word : rng_state) word = r.u64();
    motion->model().rng().set_state(rng_state);
    std::vector<double> model_state(r.count(kEncodedWord));
    for (double& v : model_state) v = r.f64();
    motion->model().restore_state(model_state);
  }
  r.end_section();

  r.begin_section("traffic");
  const std::uint64_t generator_count = r.count(kMinGenerator);
  for (std::uint64_t i = 0; i < generator_count; ++i) {
    const net::FlowId flow_id = static_cast<net::FlowId>(r.u64());
    std::array<std::uint64_t, 4> rng_state{};
    for (std::uint64_t& word : rng_state) word = r.u64();
    std::vector<double> gen_state(r.count(kEncodedWord));
    for (double& v : gen_state) v = r.f64();
    network.restore_traffic_state(flow_id, rng_state, gen_state);
  }
  r.end_section();

  // Events last, in encoded (time, sequence) order: the queue hands out
  // fresh sequence numbers in insertion order, so same-tick events keep
  // their exact relative ordering. Each decoded record goes back through
  // the network's one scheduling path; an in-flight packet is stored in
  // the medium's slab first so the record can name its slot.
  r.begin_section("events");
  const std::uint64_t event_count = r.count(kMinEvent);
  for (std::uint64_t i = 0; i < event_count; ++i) {
    const sim::Time when = decode_time(r);
    sim::EventTag tag;
    tag.kind = static_cast<sim::EventTag::Kind>(r.u8());
    tag.a = r.u64();
    tag.b = r.u64();
    if (tag.kind == sim::EventTag::Kind::kDeliver) {
      tag.packet = network.medium().packets().put(decode_packet(r));
    }
    network.restore_event(when, tag);
  }
  r.end_section();

  if (!r.at_end()) {
    throw std::runtime_error("snapshot: trailing bytes after event section");
  }
  return run;
}

std::unique_ptr<exp::InstanceRun> restore_file(const std::string& path) {
  return restore(read_file(path));
}

}  // namespace imobif::snap
