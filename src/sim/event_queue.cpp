#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace imobif::sim {

EventId EventQueue::schedule(Time when, const EventTag& tag) {
  IMOBIF_ENSURE(when != Time::infinity(),
                "infinity is the empty-queue sentinel, not a schedulable time");
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.tag = tag;
  ++s.gen;  // even (free) -> odd (pending)
  const Entry entry{when, next_seq_++, slot, s.gen};
  // Seq only grows, so an entry no earlier than the FIFO's back keeps it
  // in (time, seq) order.
  if (sorted_.empty() || when >= sorted_.back().when) {
    sorted_.push_back(entry);
  } else {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  ++live_count_;
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

void EventQueue::fanout(Time when, std::uint32_t packet,
                        std::span<const std::uint32_t> receivers) {
  IMOBIF_ENSURE(when != Time::infinity(),
                "infinity is the empty-queue sentinel, not a schedulable time");
  if (receivers.empty()) return;
  if (!fans_.empty() && when < fans_.back().when) {
    // Out of order: the FIFO would no longer be sorted.
    for (const std::uint32_t receiver : receivers) {
      schedule(when, EventTag::deliver(receiver, packet));
    }
    return;
  }
  const auto count = static_cast<std::uint32_t>(receivers.size());
  fans_.push_back(Fan{when, next_seq_, packet, count});
  if (count == 1) {
    fan_receivers_.push_back(receivers.front());
  } else {
    fan_receivers_.append(receivers);
  }
  next_seq_ += count;
  live_count_ += count;
}

void EventQueue::release(std::uint32_t slot) {
  ++slots_[slot].gen;  // odd (pending) -> even (free)
  free_slots_.push_back(slot);
  --live_count_;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if ((gen & 1u) == 0 || slot >= slots_.size() || slots_[slot].gen != gen) {
    return false;
  }
  release(slot);
  return true;
}

void EventQueue::drop_dead_fronts() const {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  while (!sorted_.empty() && !entry_live(sorted_.front())) {
    sorted_.pop_front();
  }
}

const EventQueue::Entry* EventQueue::first_entry() const {
  const Entry* top = heap_.empty() ? nullptr : &heap_.front();
  if (sorted_.empty()) return top;
  const Entry* head = &sorted_.front();
  return top == nullptr || Later{}(*top, *head) ? head : top;
}

bool EventQueue::fan_first(const Entry* first) const {
  if (fans_.empty()) return false;
  if (first == nullptr) return true;
  const Fan& fan = fans_.front();
  return first->when != fan.when ? fan.when < first->when
                                 : fan.seq < first->seq;
}

Time EventQueue::next_time() const {
  if (live_count_ == 0) return Time::infinity();
  drop_dead_fronts();
  const Entry* first = first_entry();
  return fan_first(first) ? fans_.front().when : first->when;
}

Event EventQueue::pop() {
  Event out;
  if (!pop_due(Time::infinity(), out)) {
    throw std::logic_error("EventQueue::pop on empty queue");
  }
  return out;
}

bool EventQueue::pop_due(Time until, Event& out) {
  for (;;) {
    if (live_count_ == 0) return false;
    // A cancelled heap top or FIFO front still bounds every live entry of
    // its container from below, so a fan ahead of both holds the earliest
    // live event: a delivery reads no slot.
    const Entry* first = first_entry();
    if (fan_first(first)) {
      Fan& fan = fans_.front();
      if (fan.when > until) return false;
      out = Event{fan.when, fan.seq,
                  EventTag::deliver(fan_receivers_.front(), fan.packet)};
      fan_receivers_.pop_front();
      ++fan.seq;
      if (--fan.remaining == 0) fans_.pop_front();
      --live_count_;
      break;
    }
    const Entry top = *first;
    const bool live = entry_live(top);
    if (live && top.when > until) return false;
    if (!sorted_.empty() && first == &sorted_.front()) {
      sorted_.pop_front();
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
    if (!live) continue;  // cancelled: dropped lazily
    out = Event{top.when, top.seq, slots_[top.slot].tag};
    release(top.slot);
    break;
  }
  IMOBIF_ASSERT(out.when >= last_popped_,
                "event times must be popped in non-decreasing order");
  last_popped_ = out.when;
  return true;
}

std::vector<Event> EventQueue::pending() const {
  const auto earlier = [](const Event& a, const Event& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  };
  std::vector<Event> out;
  out.reserve(live_count_);
  for (const Entry& entry : heap_) {
    if (!entry_live(entry)) continue;  // cancelled, not yet dropped
    out.push_back(Event{entry.when, entry.seq, slots_[entry.slot].tag});
  }
  std::sort(out.begin(), out.end(), earlier);
  const auto heap_count = static_cast<std::ptrdiff_t>(out.size());
  // The FIFO and the fans are already in execution order; merge each in.
  for (const Entry& entry : sorted_) {
    if (!entry_live(entry)) continue;
    out.push_back(Event{entry.when, entry.seq, slots_[entry.slot].tag});
  }
  std::inplace_merge(out.begin(), out.begin() + heap_count, out.end(),
                     earlier);
  const auto entry_count = static_cast<std::ptrdiff_t>(out.size());
  auto receiver = fan_receivers_.begin();
  for (const Fan& fan : fans_) {
    for (std::uint32_t k = 0; k < fan.remaining; ++k, ++receiver) {
      out.push_back(Event{fan.when, fan.seq + k,
                          EventTag::deliver(*receiver, fan.packet)});
    }
  }
  std::inplace_merge(out.begin(), out.begin() + entry_count, out.end(),
                     earlier);
  return out;
}

std::size_t EventQueue::approx_bytes() const {
  return heap_.capacity() * sizeof(Entry) +
         sorted_.capacity() * sizeof(Entry) +
         fans_.capacity() * sizeof(Fan) +
         fan_receivers_.capacity() * sizeof(std::uint32_t) +
         slots_.capacity() * sizeof(Slot) +
         free_slots_.capacity() * sizeof(std::uint32_t);
}

}  // namespace imobif::sim
