// Node: a wireless ad hoc node with position, battery, neighbor table, flow
// table, HELLO beaconing, and the Figure-1 data-plane pipeline.
//
// The node implements the *mechanics* (receive, forward, transmit energy
// accounting, bounded movement); all mobility *decisions* are delegated to
// the installed MobilityPolicy (src/core).
#pragma once

#include <cstdint>

#include "energy/battery.hpp"
#include "energy/radio_model.hpp"
#include "geom/vec2.hpp"
#include "net/flow_table.hpp"
#include "net/ids.hpp"
#include "net/medium.hpp"
#include "net/mobility_policy.hpp"
#include "net/neighbor_table.hpp"
#include "net/node_store.hpp"
#include "net/packet.hpp"
#include "net/routing.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace imobif::net {

enum class DropReason : std::uint8_t {
  kDeadNode,
  kNoRoute,
  kNoEnergy,
  kOutOfRange,
  kUnknownFlow,
  kFaulted,       ///< node crashed/paused by a fault plan
  kStaleNotify,   ///< notification older than the last applied decision
};

const char* to_string(DropReason reason);

/// Observer through which Network collects flow progress and fate events.
class NetworkEvents {
 public:
  virtual ~NetworkEvents() = default;
  virtual void on_delivered(Node& dest, const DataBody& data);
  virtual void on_notification_initiated(Node& dest,
                                         const NotificationBody& body);
  /// The destination retransmitted an unconfirmed status-change request
  /// (reliability layer; body.attempt > 0).
  virtual void on_notification_retry(Node& dest,
                                     const NotificationBody& body);
  virtual void on_notification_at_source(Node& source,
                                         const NotificationBody& body);
  virtual void on_node_depleted(Node& node);
  virtual void on_drop(Node& where, PacketType type, DropReason reason);
  /// A node accepted a relay-recruitment invitation into a flow.
  virtual void on_recruited(Node& recruit, const RecruitBody& body);
};

// snap:transient(node settings, persisted wholesale as scenario text)
struct NodeConfig {
  sim::Time hello_interval = sim::Time::from_seconds(10.0);
  sim::Time hello_jitter = sim::Time::from_seconds(1.0);
  sim::Time neighbor_timeout = sim::Time::from_seconds(45.0);
  util::Bits hello_bits{256.0};
  util::Bits notification_bits{512.0};
  /// When false, HELLO beacons are free (ideal control plane); when true
  /// they are charged at full-range power like any transmission.
  bool charge_hello_energy = true;
  /// Notification reliability (DESIGN.md §7): when retry_cap > 0 the
  /// destination retransmits an unconfirmed status-change request after
  /// notify_retry_timeout (doubling on every attempt) until the source's
  /// stamped status confirms the flip or the cap is hit; 0 reproduces the
  /// paper's fire-and-forget notification exactly.
  std::uint32_t notify_retry_cap = 0;
  sim::Time notify_retry_timeout = sim::Time::from_seconds(2.0);
  /// Localization error radius: the position a node *advertises* (in
  /// HELLO beacons and packet stamps) is its true position plus a
  /// deterministic pseudo-random offset uniform in a disc of this radius,
  /// modeling Assumption 2 backed by imperfect (e.g. range-based)
  /// localization instead of GPS. 0 = perfect positions. Transmit power
  /// control still uses true distances (the radio, not the position
  /// service, handles that); only *decisions* (routing, strategy targets,
  /// cost estimates) see the error.
  util::Meters position_error_m{0.0};
};

class Node {
 public:
  /// The network's wiring, one record shared by all of its nodes (the
  /// network owns it; see Network). Routing and policy may be null; the
  /// rest are required.
  // snap:transient(non-owning wiring, rebuilt with the network by create_shell)
  struct Services {
    sim::Simulator* sim = nullptr;
    Medium* medium = nullptr;
    const energy::RadioEnergyModel* radio = nullptr;
    RoutingProtocol* routing = nullptr;
    MobilityPolicy* policy = nullptr;
    NetworkEvents* events = nullptr;
    /// Struct-of-arrays hot-state store (DESIGN.md §12). It must hold a
    /// slot for this node's id, where the node's position and residual
    /// energy live.
    NodeStore* store = nullptr;
  };

  /// `services` and `config` are the network's shared records; the node
  /// keeps pointers to them, so both must outlive it.
  Node(NodeId id, geom::Vec2 position, util::Joules initial_energy,
       const Services& services, const NodeConfig& config);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  geom::Vec2 position() const { return pos(); }
  void set_position(geom::Vec2 p);
  /// The position this node advertises in stamps/HELLOs — the true one
  /// plus the configured localization error (see NodeConfig).
  geom::Vec2 advertised_position() const;
  bool alive() const { return !battery_.depleted(); }
  /// Crash/pause state driven by the medium's fault plan: a faulted node
  /// neither transmits, receives, nor beacons until resumed.
  bool faulted() const { return faulted_; }
  void set_faulted(bool faulted);
  sim::Time now() const;

  energy::Battery& battery() { return battery_; }
  const energy::Battery& battery() const { return battery_; }
  NeighborTable& neighbors() { return neighbors_; }
  const NeighborTable& neighbors() const { return neighbors_; }
  FlowTable& flows() { return flows_; }
  const FlowTable& flows() const { return flows_; }
  const NodeConfig& config() const { return *config_; }
  const energy::RadioEnergyModel& radio() const { return *services_->radio; }

  /// Starts (or restarts) periodic HELLO beaconing with a random-free
  /// deterministic phase derived from the node id.
  void start_hello();
  void stop_hello();
  /// Emits one HELLO immediately.
  void send_hello_now();
  bool hello_active() const { return hello_event_ != 0; }

  /// Flow-source entry point: resolves the next hop, lets the policy seed
  /// the header aggregate, and transmits. Returns false when the packet
  /// could not be sent (no route / no energy / dead).
  bool originate_data(DataBody data);

  /// Medium delivery entry point.
  void handle_receive(const Packet& pkt);

  // --- Event handlers (executed by Network::dispatch) ---

  /// kHelloTick: beacons, purges stale neighbors, re-arms the next tick.
  void hello_tick();
  /// kNotifyRetry: retransmits `flow`'s unconfirmed status-change request.
  void notify_retry_tick(FlowId flow);

  /// Bounded mobility step: moves at most `max_step` toward `target`,
  /// drawing `cost_per_meter * distance` from the battery (movement is
  /// truncated to what the battery can afford). Returns the distance moved.
  util::Meters move_towards(geom::Vec2 target, util::Meters max_step,
                            util::JoulesPerMeter cost_per_meter);

  /// Total distance this node has moved via move_towards().
  util::Meters total_moved() const { return total_moved_; }

  /// Charges E_T(distance-to-next, size) and hands the packet to the
  /// medium. `next_position` is the sender's local estimate of the next
  /// hop's location (neighbor table / packet stamps).
  bool transmit(Packet pkt, NodeId next, geom::Vec2 next_position);

  /// Best local estimate of another node's info: neighbor table first,
  /// ground-truth oracle as fallback (documented GPS substitution).
  NeighborInfo lookup(NodeId other) const;

  // --- Checkpoint restore support (src/snap) ---
  // These bypass the usual side effects: restore re-materializes state that
  // already had its side effects before the snapshot was taken.

  /// Overwrites the crash flag without the beacon start/stop side effects
  /// of set_faulted(); pending HELLO events are restored separately.
  void restore_faulted(bool faulted) { faulted_ = faulted; }
  void restore_total_moved(util::Meters meters) { total_moved_ = meters; }
  /// Adopts `id` as the cancellation handle of a restored event this node
  /// owns (kHelloTick, or kNotifyRetry for flow `tag.b`); other kinds have
  /// no handle. Network::restore_event calls this after re-inserting it.
  void adopt_event(const sim::EventTag& tag, sim::EventId id);

 private:
  void handle_data(DataBody data, const SenderStamp& from);
  void handle_recruit(const RecruitBody& body);
  /// Transmits toward entry.next; on link-layer failure re-resolves the
  /// route once (local repair) and retries. Returns true when some copy
  /// was accepted by the medium.
  bool forward_with_repair(const DataBody& data, FlowEntry& entry);
  void handle_notification(NotificationBody body);
  void send_notification(FlowEntry& entry, bool enable,
                         const MobilityAggregate& agg);
  /// Transmits the current pending decision upstream and (re-)arms the
  /// retry timer; shared by the first transmission and every retry.
  void transmit_notification(FlowEntry& entry);
  void schedule_notify_retry(FlowEntry& entry);
  void cancel_notify_retry(FlowEntry& entry);
  Packet stamp(PacketType type, NodeId link_dest, util::Bits size_bits) const;

  /// Position storage: this node's NodeStore column cell.
  geom::Vec2& pos() { return *pos_cell_; }
  const geom::Vec2& pos() const { return *pos_cell_; }

  NodeId id_;
  // snap:transient(rebound to the NodeStore cell at construction)
  geom::Vec2* pos_cell_ = nullptr;
  energy::Battery battery_;
  NeighborTable neighbors_;
  FlowTable flows_;
  const Services* services_;
  const NodeConfig* config_;
  // snap:derived(adopt_event)
  sim::EventId hello_event_ = 0;
  util::Meters total_moved_;
  bool faulted_ = false;
};

}  // namespace imobif::net
