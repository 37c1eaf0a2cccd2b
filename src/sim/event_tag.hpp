// Events as data: a scheduled event is a plain record — a closed kind,
// two integer operands and, for deliveries, a slot in the medium's packet
// slab — executed by the one EventSink the simulator dispatches to
// (net::Network::dispatch). The record *is* the event, so checkpointing
// needs no second mapping: the snapshot writes the pending records and
// restore re-inserts them through the same scheduling path (DESIGN.md §9).
// Scheduling copies 24 bytes and allocates nothing.
//
// The sim layer stays network-agnostic: the net layer interprets the
// operands by convention (see Kind) and the sim layer never dereferences
// the packet slot. kCallback is for the sim unit tests only; the snapshot
// encoder rejects it and no domain code schedules it.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace imobif::sim {

struct EventTag {
  // The numeric values are persisted in snapshots; never renumber.
  enum class Kind : std::uint8_t {
    kCallback = 0,      ///< a = callback index (sim unit tests)
    kHelloTick = 1,     ///< a = node id
    kEmitPacket = 2,    ///< a = flow id
    kDeliver = 3,       ///< a = receiver node id; packet = slab slot
    kNotifyRetry = 4,   ///< a = node id, b = flow id
    kFaultSet = 5,      ///< a = node id, b = 1 (crash) / 0 (resume)
    kMobTick = 6,       ///< background-motion tick (src/mob)
  };
  static constexpr Kind kLastKind = Kind::kMobTick;
  static constexpr std::uint32_t kNoPacket = 0xffffffffu;

  Kind kind = Kind::kCallback;
  std::uint32_t packet = kNoPacket;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  // Named constructors (the net and mob scheduling sites use these).
  static EventTag hello_tick(std::uint64_t node) {
    return EventTag{Kind::kHelloTick, kNoPacket, node, 0};
  }
  static EventTag emit_packet(std::uint64_t flow) {
    return EventTag{Kind::kEmitPacket, kNoPacket, flow, 0};
  }
  static EventTag deliver(std::uint64_t receiver, std::uint32_t packet) {
    return EventTag{Kind::kDeliver, packet, receiver, 0};
  }
  static EventTag notify_retry(std::uint64_t node, std::uint64_t flow) {
    return EventTag{Kind::kNotifyRetry, kNoPacket, node, flow};
  }
  static EventTag fault_set(std::uint64_t node, bool on) {
    return EventTag{Kind::kFaultSet, kNoPacket, node, on ? 1u : 0u};
  }
  static EventTag mob_tick() {
    return EventTag{Kind::kMobTick, kNoPacket, 0, 0};
  }
};

/// A popped event: when it fires, its insertion sequence (the same-tick
/// tie-break), and what it does.
struct Event {
  Time when;
  std::uint64_t seq = 0;
  EventTag tag;
};

/// Executes popped events. A sink may forward kinds it does not own to one
/// registered sink (the network hands kMobTick to the motion driver) —
/// never to a per-event closure.
class EventSink {
 public:
  virtual void dispatch(const Event& ev) = 0;

 protected:
  ~EventSink() = default;
};

}  // namespace imobif::sim
