// Simulator: the event loop that owns the clock.
//
// Components schedule event records (event_tag.hpp) at absolute or
// relative times; run() drains them in order, advancing the clock
// monotonically, and hands each one to the registered EventSink. A stop
// flag and run()'s event cap guard against runaway protocols.
#pragma once

#include <cstdint>
#include <span>

#include "sim/event_queue.hpp"
#include "sim/event_tag.hpp"
#include "sim/time.hpp"

namespace imobif::sim {

// snap:transient(event plumbing; the events section re-arms the queue and restore_clock restores the clock)
class Simulator {
 public:
  Time now() const { return now_; }

  /// Installs the sink every popped event is dispatched to (not owned).
  void set_sink(EventSink* sink) { sink_ = sink; }

  /// Schedules at absolute time `when`; must not be in the past.
  EventId at(Time when, const EventTag& tag);

  /// Schedules `delay` after the current time.
  EventId after(Time delay, const EventTag& tag) {
    return at(now_ + delay, tag);
  }

  /// Schedules one kDeliver of `packet` to each of `receivers` at absolute
  /// time `when`, as one queue entry (EventQueue::fanout); must not be in
  /// the past. Fan deliveries cannot be cancelled.
  void fanout(Time when, std::uint32_t packet,
              std::span<const std::uint32_t> receivers);

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the queue is empty, `until` is passed, stop() is called, or
  /// (max_events > 0) that many events have executed — whichever is first.
  /// Returns the number of events executed by this call.
  std::size_t run(Time until = Time::infinity(), std::size_t max_events = 0);

  /// Executes at most one pending event (if due before `until`).
  /// Returns true when an event ran.
  bool step(Time until = Time::infinity());

  /// Request run() to return after the current event completes.
  void stop() { stopped_ = true; }

  /// True when stop() was called during the last (or current) run(); run()
  /// clears the flag on entry, so after a return this tells why it ended.
  bool stop_requested() const { return stopped_; }

  std::size_t pending_events() const { return queue_.size(); }
  std::size_t executed_events() const { return executed_; }

  /// Heap bytes of the event queue (scale accounting; see
  /// EventQueue::approx_bytes).
  std::size_t queue_approx_bytes() const { return queue_.approx_bytes(); }

  /// Every pending event in execution order, for checkpointing.
  std::vector<Event> pending() const { return queue_.pending(); }

  /// Checkpoint restore: re-seats the clock and the executed-event count.
  /// Only valid on a pristine simulator (no pending events, nothing
  /// executed) — restore re-schedules events *after* the clock is seated so
  /// their absolute times are never "in the past".
  void restore_clock(Time now, std::size_t executed);
 private:
  EventQueue queue_;
  EventSink* sink_ = nullptr;
  Time now_ = Time::zero();
  bool stopped_ = false;
  // snap:derived(restore_clock)
  std::size_t executed_ = 0;
};

}  // namespace imobif::sim
