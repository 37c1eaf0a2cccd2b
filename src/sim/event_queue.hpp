// Discrete-event queue: a binary heap and a sorted FIFO of (time,
// sequence, slot) entries over a slot table of event records, with lazy
// cancellation, beside a FIFO of broadcast fan-outs.
//
// Ties in time are broken by insertion sequence, so same-tick events run in
// the order they were scheduled — this determinism is what makes the
// packet-by-packet mobility protocol of the paper reproducible in tests.
//
// Storage (DESIGN.md §12): each event scheduled with schedule() occupies
// one slot of a vector that holds its EventTag and a generation counter;
// freed slots are reused. An entry names its slot and the generation it
// was scheduled under, and an EventId packs the same pair (generation in
// the high 32 bits). A slot's generation is odd while its event is pending
// and even while the slot is free; popping or cancelling bumps it. So
// liveness of an entry and validity of a cancel() handle are each one
// array read: a stale handle whose slot has since been reused carries an
// older generation and is refused, leaving the new occupant alone. Ids are
// never 0 (a live generation is odd), which callers use as "no event".
//
// The sorted FIFO: schedule() appends an entry to a FIFO when its time is
// no earlier than the FIFO's back, and pushes it onto the heap otherwise.
// Seq only grows, so the FIFO stays in (time, seq) order. Every HELLO
// re-arm (now + hello interval) qualifies, so the pending ticks, one per
// node, sit in the FIFO at O(1) per schedule and pop rather than in a
// heap of the network's size. One far-future entry at the back sends
// shorter schedules to the heap until it pops; that costs speed, never
// order.
//
// The fan FIFO: about nine in ten events are kDeliver records, and the
// medium schedules a whole broadcast's deliveries at once, at now +
// propagation delay. fanout() stores that broadcast as one Fan {when,
// first seq, packet, remaining} and reserves one seq per receiver; the
// receiver ids sit in a second FIFO beside it. Fans arrive in (time, seq)
// order, so the FIFO is sorted like the heap's pop order, and pop() takes
// the earliest of the heap top, the sorted FIFO's front and the front
// fan's next delivery, which it hands out by advancing the fan's cursor:
// no slot, no heap push, nothing freed. A cancelled heap top or FIFO front
// bounds every live entry of its container from below, so it is dropped
// only once it is earlier than the front fan, and a delivery reads no
// slot. The popped stream, seq values included, is exactly that of one
// heap holding every event. A fan earlier than the back fan (none in
// practice) goes through schedule(), one entry per receiver. Fan
// deliveries cannot be cancelled; a directly scheduled kDeliver still can.
//
// The heap is a std::vector managed with std::push_heap/pop_heap (not a
// std::priority_queue) so live events can be *enumerated* for
// checkpointing: pending() returns every live event of the three
// containers in execution order, each fan expanded into its per-receiver
// records, without disturbing the queue.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/event_tag.hpp"
#include "sim/time.hpp"

namespace imobif::sim {

using EventId = std::uint64_t;

/// A FIFO over one vector: pop_front() advances a head index, and a push
/// first drops the consumed prefix once it is at least half the vector.
/// Neither end allocates in steady state, and after a push the consumed
/// prefix is smaller than the live part.
// snap:transient(container; EventQueue::pending() expands what it holds)
template <class T>
class VecFifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t capacity() const { return items_.capacity(); }
  T& front() { return items_[head_]; }
  const T& front() const { return items_[head_]; }
  const T& back() const { return items_.back(); }
  void pop_front() { ++head_; }
  void push_back(const T& item) {
    compact();
    items_.push_back(item);
  }
  void append(std::span<const T> items) {
    compact();
    items_.insert(items_.end(), items.begin(), items.end());
  }
  auto begin() const {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  auto end() const { return items_.end(); }

 private:
  void compact() {
    if (head_ == 0 || 2 * head_ < items_.size()) return;
    items_.erase(items_.begin(),
                 items_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  std::vector<T> items_;
  std::size_t head_ = 0;
};

// snap:transient(pending events are re-armed through the schedule path from the snapshot events section)
class EventQueue {
 public:
  /// Schedules `tag` at absolute time `when`; returns a handle for cancel().
  EventId schedule(Time when, const EventTag& tag);

  /// Schedules one kDeliver of `packet` to each of `receivers` at `when`,
  /// in that order, with consecutive seq values. Not cancellable.
  void fanout(Time when, std::uint32_t packet,
              std::span<const std::uint32_t> receivers);

  /// Cancels a pending event. Returns false when the event already ran,
  /// was already cancelled, or never existed.
  bool cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  /// Time of the earliest live event; Time::infinity() when empty.
  Time next_time() const;

  /// Removes and returns the earliest live event. Requires !empty().
  Event pop();

  /// Moves the earliest live event into `out` and returns true when it is
  /// due at or before `until`; returns false, leaving the queue as it
  /// was, when the queue is empty or it is not. An out-parameter, not a
  /// returned std::optional: copying the optional out cost
  /// BM_EventQueueBeaconMix about a fifth.
  bool pop_due(Time until, Event& out);

  /// Every live event in execution order (time, then insertion sequence).
  std::vector<Event> pending() const;

  /// Heap-allocated bytes of the queue's containers (scale accounting).
  std::size_t approx_bytes() const;

 private:
  struct Entry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  // snap:transient(a pending record's slot; restore re-inserts records)
  struct Slot {
    EventTag tag;
    std::uint32_t gen = 0;  ///< odd while pending, even while free
  };
  // snap:transient(a broadcast's pending deliveries; pending() expands it)
  struct Fan {
    Time when;
    std::uint64_t seq;  ///< seq of the next delivery; +1 per pop
    std::uint32_t packet;
    std::uint32_t remaining;  ///< its receivers still at the FIFO front
  };

  bool entry_live(const Entry& entry) const {
    return slots_[entry.slot].gen == entry.gen;
  }
  /// Ends the slot's current event (popped or cancelled) and frees it.
  void release(std::uint32_t slot);
  /// Drops cancelled entries off the heap top and the FIFO front (lazy
  /// cancellation).
  void drop_dead_fronts() const;
  /// The earlier of the heap top and the FIFO front, live or cancelled;
  /// null when both are empty.
  const Entry* first_entry() const;
  /// True when the front fan's next delivery comes before `first` (the
  /// first_entry()) or there is none. Requires a live event.
  bool fan_first(const Entry* first) const;

  /// Max-heap under Later: the earliest (time, seq) on top.
  mutable std::vector<Entry> heap_;
  /// Scheduled entries in (time, seq) order, the earliest in front: each
  /// schedule() no earlier than the back lands here instead of the heap.
  mutable VecFifo<Entry> sorted_;
  /// Broadcast fan-outs in (time, seq) order, the earliest in front.
  VecFifo<Fan> fans_;
  /// The fans' receivers, front fan first, each fan's in delivery order.
  VecFifo<std::uint32_t> fan_receivers_;
  // snap:derived(schedule)
  std::vector<Slot> slots_;
  // snap:derived(schedule)
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  // Time of the last event handed out by pop(); pop() contracts that the
  // stream of popped times never regresses.
  Time last_popped_ = Time::zero();
};

}  // namespace imobif::sim
