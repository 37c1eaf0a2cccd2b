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
  if (tag.kind == EventTag::Kind::kDeliver &&
      (lane_.empty() || when >= lane_.back().when)) {
    lane_.push_back(entry);
  } else {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  ++live_count_;
  return (static_cast<EventId>(s.gen) << 32) | slot;
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
  while (!lane_.empty() && !entry_live(lane_.front())) lane_.pop_front();
}

Time EventQueue::next_time() const {
  if (live_count_ == 0) return Time::infinity();
  drop_dead_fronts();
  return lane_first() ? lane_.front().when : heap_.front().when;
}

Event EventQueue::pop() {
  if (live_count_ == 0) {
    throw std::logic_error("EventQueue::pop on empty queue");
  }
  drop_dead_fronts();
  Entry next{};
  if (lane_first()) {
    next = lane_.front();
    lane_.pop_front();
  } else {
    next = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  IMOBIF_ASSERT(next.when >= last_popped_,
                "event times must be popped in non-decreasing order");
  last_popped_ = next.when;
  const Event out{next.when, next.seq, slots_[next.slot].tag};
  release(next.slot);
  return out;
}

std::vector<Event> EventQueue::pending() const {
  std::vector<Event> out;
  out.reserve(live_count_);
  const auto collect = [&](const Entry& entry) {
    if (!entry_live(entry)) return;  // cancelled, not yet dropped
    out.push_back(Event{entry.when, entry.seq, slots_[entry.slot].tag});
  };
  for (const Entry& entry : heap_) collect(entry);
  for (const Entry& entry : lane_) collect(entry);
  std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  });
  return out;
}

std::size_t EventQueue::approx_bytes() const {
  return (heap_.capacity() + lane_.size()) * sizeof(Entry) +
         slots_.capacity() * sizeof(Slot) +
         free_slots_.capacity() * sizeof(std::uint32_t);
}

}  // namespace imobif::sim
