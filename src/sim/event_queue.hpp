// Discrete-event queue: a binary heap of (time, sequence, slot) entries,
// plus a FIFO lane for deliveries, over a slot table of event records,
// with O(log n) push/pop and lazy cancellation.
//
// Ties in time are broken by insertion sequence, so same-tick events run in
// the order they were scheduled — this determinism is what makes the
// packet-by-packet mobility protocol of the paper reproducible in tests.
//
// Storage (DESIGN.md §12): each pending event occupies one slot of a
// vector that holds its EventTag and a generation counter; freed slots are
// reused. A heap entry names its slot and the generation it was scheduled
// under, and an EventId packs the same pair (generation in the high 32
// bits). A slot's generation is odd while its event is pending and even
// while the slot is free; popping or cancelling bumps it. So liveness of a
// heap entry and validity of a cancel() handle are each one array read: a
// stale handle whose slot has since been reused carries an older
// generation and is refused, leaving the new occupant alone. Ids are never
// 0 (a live generation is odd), which callers use as "no event".
//
// The delivery lane: about nine in ten events are kDeliver records, and
// the medium schedules every one at now + propagation delay, so they
// arrive in (time, seq) order. schedule() appends a kDeliver entry to a
// deque when its time is not before the lane's back and pushes anything
// else (other kinds, or an out-of-order delivery) onto the heap. The lane
// is then sorted by (time, seq) like the heap's pop order, so pop() takes
// the earlier of the heap top and the lane front: the popped stream, seq
// values included, is exactly that of one heap, while most events skip
// the O(log n) sift through a heap that holds every pending HELLO tick.
// Cancelled lane entries are dropped lazily at the front, as on the heap.
//
// The heap is a std::vector managed with std::push_heap/pop_heap (not a
// std::priority_queue) so live events can be *enumerated* for
// checkpointing: pending() returns every live event of both containers in
// execution order without disturbing the queue.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/event_tag.hpp"
#include "sim/time.hpp"

namespace imobif::sim {

using EventId = std::uint64_t;

// snap:transient(pending events are re-armed through the schedule path from the snapshot events section)
class EventQueue {
 public:
  /// Schedules `tag` at absolute time `when`; returns a handle for cancel().
  EventId schedule(Time when, const EventTag& tag);

  /// Cancels a pending event. Returns false when the event already ran,
  /// was already cancelled, or never existed.
  bool cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  /// Time of the earliest live event; Time::infinity() when empty.
  Time next_time() const;

  /// Removes and returns the earliest live event. Requires !empty().
  Event pop();

  /// Every live event in execution order (time, then insertion sequence).
  std::vector<Event> pending() const;

  /// Heap-allocated bytes of the queue's containers (scale accounting;
  /// the lane counts its entries, not its deque blocks).
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

  bool entry_live(const Entry& entry) const {
    return slots_[entry.slot].gen == entry.gen;
  }
  /// Ends the slot's current event (popped or cancelled) and frees it.
  void release(std::uint32_t slot);
  /// Drops cancelled entries off the heap top and the lane front (lazy
  /// cancellation).
  void drop_dead_fronts() const;
  /// After drop_dead_fronts(): true when the earliest live entry is the
  /// lane's front. Requires a live entry.
  bool lane_first() const {
    return !lane_.empty() &&
           (heap_.empty() || Later{}(heap_.front(), lane_.front()));
  }

  /// Max-heap under Later: the earliest (time, seq) on top.
  mutable std::vector<Entry> heap_;
  /// kDeliver entries in (time, seq) order, the earliest in front.
  mutable std::deque<Entry> lane_;
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
