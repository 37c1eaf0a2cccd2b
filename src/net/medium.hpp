// Broadcast wireless medium with a fixed communication range.
//
// Delivery model: a transmission from position p reaches every live node
// within `comm_range_m` of p after a constant propagation/processing delay.
// Unicasts outside the range (or to dead nodes) are dropped and counted.
// Transmission *energy* is charged by the sender (Node::transmit) according
// to the actual hop distance — range gates connectivity, power control
// scales cost, exactly as in the paper's model.
//
// The medium also doubles as the experiment's ground-truth position oracle
// (`true_position`), standing in for GPS (paper Assumption 2).
//
// Each transmission's packet is stored once, in the medium's PacketSlab.
// A broadcast collects the receivers that pass the alive, faulted and
// loss checks, in grid visit order, and schedules them as one fan-out
// entry (Simulator::fanout): the simulator then pops one kDeliver per
// receiver, each naming the same slab slot. A unicast is a fan of one.
// While it reads each receiver's Node, the broadcast also prefetches the
// first line of that receiver's neighbor table (its id column): the
// delivery that upserts the sender comes one propagation delay later,
// hundreds of events on in a large network, and then finds the line
// cached. Only that one line: prefetching whole tables cost the small
// networks more than it saved.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "geom/vec2.hpp"
#include "net/fault.hpp"
#include "net/grid_index.hpp"
#include "net/ids.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace imobif::net {

class Node;

// snap:transient(config struct, persisted wholesale as scenario text)
struct MediumConfig {
  double comm_range_m = 180.0;
  sim::Time prop_delay = sim::Time::from_seconds(0.005);
  /// Unicasts model power-controlled links (paper Assumption 4): a sender
  /// reaches its flow neighbor at any distance by paying E_T(d, l), so by
  /// default only broadcasts (HELLO/RREQ neighbor discovery) are gated by
  /// comm_range_m. Set true to gate unicasts as well.
  bool unicast_range_gated = false;
};

/// In-flight packets, one per transmission, reference-counted by the
/// delivery events that still have to run: a broadcast stores its packet
/// with one reference per receiver. A std::deque keeps stored packets at
/// stable addresses while a receiver's handler transmits, and so stores,
/// more packets.
class PacketSlab {
 public:
  using Slot = std::uint32_t;

  /// Stores `pkt` with `refs` references (one per delivery that reads it).
  Slot put(const Packet& pkt, std::uint32_t refs = 1);
  /// Drops a reference; the slot is freed with the last one.
  void release(Slot slot);
  const Packet& get(Slot slot) const { return packets_[slot]; }

  /// Packets still referenced by a pending delivery.
  std::size_t in_use() const { return packets_.size() - free_.size(); }

 private:
  // snap:derived(put)
  std::deque<Packet> packets_;
  // snap:derived(put)
  std::vector<std::uint32_t> refs_;
  // snap:derived(put)
  std::vector<Slot> free_;
};

// snap:transient(wiring rebuilt by create_shell and attach)
class Medium {
 public:
  Medium(sim::Simulator& sim, MediumConfig config);

  /// Registers a node; the medium does not own it.
  void attach(Node& node);

  /// Keeps the spatial index current; Node calls this on every position
  /// change.
  void node_moved(NodeId id, geom::Vec2 new_position);

  Node* find_node(NodeId id) const;
  /// One past the highest attached id (ids are dense in practice).
  std::size_t node_count() const { return by_id_.size(); }

  /// Ground-truth position (GPS oracle). Throws for unknown ids.
  geom::Vec2 true_position(NodeId id) const;

  util::Meters comm_range() const {
    return util::Meters{config_.comm_range_m};
  }

  /// The spatial index over attached nodes — the one neighbor-discovery
  /// path (DESIGN.md §12); routing oracles query it instead of scanning
  /// every node.
  const GridIndex& grid() const { return index_; }

  /// Delivers to every live node in range of the sender (HELLO beacons).
  void broadcast(const Node& sender, const Packet& pkt);

  /// Delivers to `dest` iff it is alive and in range of the sender's
  /// position at transmit time. Returns true when the packet was accepted
  /// for delivery. Injected channel loss (see install_fault_plan) is
  /// *silent*: the packet is counted as dropped_injected but unicast still
  /// returns true — a wireless sender cannot tell a lost frame from a
  /// delivered one without an ACK.
  bool unicast(const Node& sender, NodeId dest, const Packet& pkt);

  /// Installs a fault plan (DESIGN.md §7): deterministic injected link
  /// loss and a node crash/pause schedule executed through the simulator.
  /// Installing a disabled (default) plan is a no-op. Call before running
  /// the simulation; crash times are absolute simulated seconds.
  void install_fault_plan(const FaultPlan& plan);
  const FaultInjector* fault_injector() const { return injector_.get(); }

  /// Executes a kDeliver event: hands the slab packet to `receiver`, then
  /// drops the event's reference to it.
  void deliver(NodeId receiver, PacketSlab::Slot slot);

  /// The in-flight packets pending kDeliver events refer to.
  PacketSlab& packets() { return packets_; }
  const PacketSlab& packets() const { return packets_; }

  struct Counters {
    std::uint64_t broadcasts = 0;
    std::uint64_t unicasts = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped_out_of_range = 0;
    std::uint64_t dropped_dead = 0;
    std::uint64_t dropped_unknown = 0;
    std::uint64_t dropped_injected = 0;  ///< fault-injected channel loss
    std::uint64_t dropped_faulted = 0;   ///< receiver crashed/paused
  };
  const Counters& counters() const { return counters_; }

  // --- Checkpoint restore support (src/snap) ---

  void restore_counters(const Counters& counters) { counters_ = counters; }
  /// Re-creates the loss injector from its plan WITHOUT scheduling the
  /// crash events (those are restored as pending simulator events); returns
  /// it so the caller can restore per-link channel state.
  FaultInjector& restore_fault_injector(const FaultPlan& plan);

 private:
  /// Counts a delivery to `receiver` and schedules it one propagation
  /// delay from now, as a fan of one; the caller has already taken the
  /// event's reference to `slot`.
  void deliver_later(NodeId receiver, PacketSlab::Slot slot);

  sim::Simulator& sim_;
  MediumConfig config_;
  /// Dense id -> node table (ids are dense in practice; sparse ids cost
  /// vector slack, not correctness). One array read on the per-recipient
  /// broadcast path where a hash lookup used to be.
  std::vector<Node*> by_id_;
  GridIndex index_;
  Counters counters_;
  // snap:derived(PacketSlab::put)
  PacketSlab packets_;
  // snap:transient(broadcast's scratch list of receivers, empty between calls)
  std::vector<NodeId> receivers_;
  // snap:derived(restore_fault_injector)
  std::unique_ptr<FaultInjector> injector_;
};

}  // namespace imobif::net
