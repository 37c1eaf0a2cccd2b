// Network: owns the simulator, medium, nodes, routing protocol, and flow
// pumps; collects flow progress and fate events for the experiment harness.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "energy/radio_model.hpp"
#include "net/medium.hpp"
#include "net/node.hpp"
#include "net/routing.hpp"
#include "sim/simulator.hpp"
// Network owns its traffic generators; the net->traffic seam is deliberate
// (DESIGN.md section 14) and a layering refactor is out of scope for the
// zero-runtime-change static-analysis PR.
// lint:allow(layer-violation): deliberate net->traffic seam
#include "traffic/params.hpp"
#include "util/units.hpp"

namespace imobif::traffic {
class Generator;
}  // namespace imobif::traffic

namespace imobif::net {

// snap:transient(config aggregate, persisted wholesale as scenario text)
struct NetworkConfig {
  MediumConfig medium;
  NodeConfig node;
  energy::RadioParams radio;
  /// Traffic shaping (DESIGN.md §14). kCbr keeps the legacy inline
  /// interval computation — no generators are created at all.
  traffic::Params traffic;
  std::uint64_t traffic_seed = 0;
};

/// Everything the source needs to drive one one-to-one flow.
struct FlowSpec {
  FlowId id = kInvalidFlow;
  NodeId source = kInvalidNode;
  NodeId destination = kInvalidNode;
  util::Bits length_bits{0.0};
  util::Bits packet_bits{8192.0};          ///< 1 KB payloads
  util::BitsPerSecond rate_bps{8192.0};    ///< paper: 1 KBps = 8 Kbps
  StrategyId strategy = StrategyId::kNone;
  bool initially_enabled = false;  ///< paper: "mobility is initially disabled"
  /// Multiplier applied to the true residual length when stamping the
  /// header estimate; 1.0 = perfect estimate (ablation A2 sweeps this).
  double length_estimate_factor = 1.0;
};

struct FlowProgress {
  FlowSpec spec;
  util::Bits emitted_bits{0.0};
  util::Bits delivered_bits{0.0};
  std::uint64_t packets_emitted = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t notifications_from_dest = 0;
  std::uint64_t notification_retries = 0;  ///< reliability retransmissions
  std::uint64_t notifications_at_source = 0;
  std::uint64_t recruits = 0;
  std::uint64_t drops = 0;
  bool emission_done = false;
  bool completed = false;
  std::optional<sim::Time> completion_time;
  std::optional<sim::Time> last_delivery_time;
};

// snap:transient(engine wiring rebuilt by InstanceRun::create_shell from scenario config)
class Network : public NetworkEvents, public sim::EventSink {
 public:
  explicit Network(NetworkConfig config = {});
  ~Network() override;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// The one dispatch path: executes every event the simulator pops
  /// (the network registers itself as the simulator's sink). kMobTick is
  /// handed to the motion sink; net does not know src/mob.
  void dispatch(const sim::Event& ev) override;

  /// Registers the sink kMobTick events go to (mob::MotionDriver), or
  /// nullptr. Not owned.
  void set_motion_sink(sim::EventSink* sink) { motion_sink_ = sink; }

  sim::Simulator& simulator() { return sim_; }
  Medium& medium() { return medium_; }
  const Medium& medium() const { return medium_; }
  const energy::RadioEnergyModel& radio() const { return radio_; }
  const NetworkConfig& config() const { return config_; }

  /// Adds a node; ids are dense, starting at 0. Hot per-node state lives
  /// in the struct-of-arrays store() and the Node binds to its slot.
  Node& add_node(geom::Vec2 position, util::Joules initial_energy);
  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  std::size_t node_count() const { return nodes_.size(); }

  /// Struct-of-arrays hot-state columns (DESIGN.md §12), indexed by NodeId.
  const NodeStore& store() const { return store_; }

  /// Installs the routing protocol (owned by the network, shared by nodes).
  void set_routing(std::unique_ptr<RoutingProtocol> routing);
  RoutingProtocol* routing() { return routing_.get(); }

  /// Installs the mobility policy (not owned; typically a core::* object).
  void set_policy(MobilityPolicy* policy);

  /// Optional secondary observer (not owned): every NetworkEvents callback
  /// is forwarded to it after the network's own bookkeeping. Used by the
  /// exp::TraceRecorder to capture per-packet event logs.
  void set_event_tap(NetworkEvents* tap) { tap_ = tap; }

  /// Starts HELLO beaconing on every node and runs `warmup_s` simulated
  /// seconds so neighbor tables populate before flows begin.
  void start_hellos();
  void warmup(util::Seconds warmup);

  /// Registers and starts emitting a flow; emissions begin one packet
  /// interval from now.
  void start_flow(const FlowSpec& spec);

  const FlowProgress& progress(FlowId id) const;
  std::vector<const FlowProgress*> all_progress() const;
  bool all_flows_complete() const;

  /// The flow loop — run_flows() here and exp::InstanceRun::advance() —
  /// runs the simulator in kFlowChunk slices and stops between slices
  /// once flow_loop_done() holds. kStallWindow is the default stall
  /// window.
  static constexpr sim::Time kFlowChunk =
      sim::Time::from_ticks(5 * sim::Time::kTicksPerSecond);
  static constexpr sim::Time kStallWindow =
      sim::Time::from_ticks(120 * sim::Time::kTicksPerSecond);

  /// Between-slice stop test of the flow loop, checked in this order:
  /// `horizon` reached, all flows complete, a first death under
  /// stop_on_first_death, or no delivery progress for over `stall_window`.
  bool flow_loop_done(sim::Time horizon,
                      sim::Time stall_window = kStallWindow) const;

  /// Runs until all flows complete, no delivery progress occurs for
  /// `stall_window`, or `horizon` elapses — whichever is first.
  /// Returns simulated time elapsed during this call.
  util::Seconds run_flows(
      util::Seconds horizon,
      util::Seconds stall_window = util::Seconds{kStallWindow.seconds()});

  /// Stops the event loop as soon as any node depletes (lifetime runs).
  void set_stop_on_first_death(bool stop) { stop_on_first_death_ = stop; }
  bool stop_on_first_death() const { return stop_on_first_death_; }
  std::optional<sim::Time> first_death_time() const {
    return first_death_time_;
  }
  std::size_t dead_node_count() const { return dead_nodes_; }
  std::uint64_t total_data_drops() const { return total_data_drops_; }

  /// Time of the most recent delivery progress (stall detection).
  sim::Time last_progress() const { return last_progress_; }

  // --- Checkpoint restore support (src/snap) ---

  /// Registers a flow's progress record verbatim, WITHOUT creating the
  /// source's flow entry or scheduling an emission (both restored
  /// separately from the snapshot).
  void restore_flow_progress(const FlowProgress& prog);
  /// Re-inserts a decoded pending event at its absolute time, in snapshot
  /// order, and hands its cancellation handle to the node that owns it.
  /// A kDeliver tag must name a packet already stored in
  /// medium().packets(); it is re-inserted as a fan of one. Throws
  /// std::runtime_error for an event this network cannot execute (unknown
  /// node, flow or kind, or a kMobTick without a motion sink).
  void restore_event(sim::Time when, const sim::EventTag& tag);
  void restore_last_progress(sim::Time t) { last_progress_ = t; }
  void restore_first_death(std::optional<sim::Time> t) {
    first_death_time_ = t;
  }
  void restore_dead_nodes(std::size_t count) { dead_nodes_ = count; }
  void restore_total_data_drops(std::uint64_t count) {
    total_data_drops_ = count;
  }
  /// Per-flow traffic generators, keyed by flow id (empty under CBR).
  /// std::map so snapshot encoding iterates in flow-id order.
  const std::map<FlowId, std::unique_ptr<traffic::Generator>>&
  traffic_generators() const {
    return traffic_;
  }
  /// Recreates flow `id`'s generator from the snapshot's (rng, state) pair.
  void restore_traffic_state(FlowId id,
                             const std::array<std::uint64_t, 4>& rng_state,
                             const std::vector<double>& state);

  /// Aggregate energy drawn across all nodes, by category.
  util::Joules total_transmit_energy() const;
  util::Joules total_movement_energy() const;
  util::Joules total_consumed_energy() const;

  /// Current positions of all nodes (Fig-5 snapshots).
  std::vector<geom::Vec2> positions() const;

  // NetworkEvents overrides.
  void on_delivered(Node& dest, const DataBody& data) override;
  void on_notification_initiated(Node& dest,
                                 const NotificationBody& body) override;
  void on_notification_retry(Node& dest,
                             const NotificationBody& body) override;
  void on_notification_at_source(Node& source,
                                 const NotificationBody& body) override;
  void on_node_depleted(Node& node) override;
  void on_drop(Node& where, PacketType type, DropReason reason) override;
  void on_recruited(Node& recruit, const RecruitBody& body) override;

 private:
  void emit_packet(FlowId id);
  /// Inter-packet gap for the next emission: the CBR base interval,
  /// shaped by the flow's generator when one is installed.
  util::Seconds emission_interval(FlowId id, const FlowSpec& spec);

  NetworkConfig config_;
  // snap:derived(Simulator::restore_clock)
  sim::Simulator sim_;
  energy::RadioEnergyModel radio_;
  NodeStore store_;
  Medium medium_;
  std::unique_ptr<RoutingProtocol> routing_;
  /// The wiring every node points at (Node::Services): set_routing and
  /// set_policy update it in place, so installing either reaches all nodes.
  // snap:transient(non-owning wiring, rebuilt with the network by create_shell)
  Node::Services services_;
  NetworkEvents* tap_ = nullptr;
  sim::EventSink* motion_sink_ = nullptr;
  // snap:derived(add_node)
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<FlowId, FlowProgress> flows_;
  // snap:derived(restore_traffic_state)
  std::map<FlowId, std::unique_ptr<traffic::Generator>> traffic_;
  bool stop_on_first_death_ = false;
  std::optional<sim::Time> first_death_time_;
  std::size_t dead_nodes_ = 0;
  std::uint64_t total_data_drops_ = 0;
  sim::Time last_progress_ = sim::Time::zero();
};

}  // namespace imobif::net
