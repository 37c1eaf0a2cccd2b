#include "sim/simulator.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace imobif::sim {

EventId Simulator::at(Time when, const EventTag& tag) {
  if (when < now_) {
    throw std::invalid_argument("Simulator::at: scheduling in the past");
  }
  return queue_.schedule(when, tag);
}

void Simulator::fanout(Time when, std::uint32_t packet,
                       std::span<const std::uint32_t> receivers) {
  if (when < now_) {
    throw std::invalid_argument("Simulator::fanout: scheduling in the past");
  }
  queue_.fanout(when, packet, receivers);
}

bool Simulator::step(Time until) {
  if (sink_ == nullptr) {
    if (queue_.empty() || queue_.next_time() > until) return false;
    throw std::logic_error("Simulator::step: no event sink installed");
  }
  Event ev;
  if (!queue_.pop_due(until, ev)) return false;
  IMOBIF_ASSERT(ev.when >= now_,
                "simulation clock must advance monotonically");
  now_ = ev.when;
  ++executed_;
  sink_->dispatch(ev);
  return true;
}

std::size_t Simulator::run(Time until, std::size_t max_events) {
  stopped_ = false;
  const std::size_t start = executed_;
  while (!stopped_ && (max_events == 0 || executed_ - start < max_events) &&
         step(until)) {
  }
  // When stopping on the time horizon, advance the clock to it so callers
  // observe a consistent "simulated until" time. An event-capped return
  // with due events still pending leaves the clock where it is (the
  // next_time() > until guard below).
  if (until != Time::infinity() && now_ < until &&
      (queue_.empty() || queue_.next_time() > until)) {
    now_ = until;
  }
  return executed_ - start;
}

void Simulator::restore_clock(Time now, std::size_t executed) {
  if (!queue_.empty() || executed_ != 0 || now_ != Time::zero()) {
    throw std::logic_error(
        "Simulator::restore_clock: simulator already in use");
  }
  now_ = now;
  executed_ = executed;
}

}  // namespace imobif::sim
