#include "lib/trace.hpp"

#include <fstream>
#include <stdexcept>

#include "net/greedy_routing.hpp"

namespace perfbench {

using namespace imobif;

std::size_t SpanLog::open(const std::string& name) {
  Span span;
  span.name = name;
  span.start_ns = now_ns();
  span.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  span.run = run_;
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  Span& span = spans_.at(index);
  span.end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  stats_[span.name].add(span.end_ns - span.start_ns);
}

void Tracer::merge(SpanLog&& log) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span& span : log.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
  for (const auto& [name, stat] : log.stats_) stats_[name].merge(stat);
  for (auto& [name, values] : log.samples_) {
    auto& dest = samples_[name];
    dest.insert(dest.end(), values.begin(), values.end());
  }
  log.spans_.clear();
  log.stack_.clear();
  log.stats_.clear();
  log.samples_.clear();
}

CallStat Tracer::stat(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stats_.find(name);
  return it == stats_.end() ? CallStat{} : it->second;
}

std::vector<double> Tracer::samples(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = samples_.find(name);
  return it == samples_.end() ? std::vector<double>{} : it->second;
}

std::size_t Tracer::span_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"run\":" << s.run << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

void TracedPolicy::seed_at_source(net::Node& source, net::DataBody& data,
                                  net::FlowEntry& entry) {
  const Timed t(seed);
  inner_.seed_at_source(source, data, entry);
}

void TracedPolicy::on_relay(net::Node& relay, net::DataBody& data,
                            net::FlowEntry& entry) {
  const Timed t(this->relay);
  inner_.on_relay(relay, data, entry);
}

void TracedPolicy::after_forward(net::Node& relay, net::FlowEntry& entry) {
  const Timed t(forward);
  inner_.after_forward(relay, entry);
}

std::optional<bool> TracedPolicy::evaluate_at_destination(
    net::Node& dest, const net::DataBody& data, net::FlowEntry& entry) {
  const Timed t(evaluate);
  return inner_.evaluate_at_destination(dest, data, entry);
}

net::NodeId TracedRouting::next_hop(const net::Node& self, net::NodeId dest) {
  const Timed t(next);
  return inner_->next_hop(self, dest);
}

Instruments::Instruments(net::Network& network, net::MobilityPolicy* policy) {
  auto routing = std::make_unique<TracedRouting>(
      std::make_unique<net::GreedyRouting>(network.medium()));
  routing_ = routing.get();
  network.set_routing(std::move(routing));
  if (policy != nullptr) {
    policy_ = std::make_unique<TracedPolicy>(*policy);
    network.set_policy(policy_.get());
  }
  network.set_event_tap(&tap_);
}

void Instruments::flush_to(SpanLog& log) const {
  if (policy_) {
    log.stat("core.seed").merge(policy_->seed);
    log.stat("core.relay").merge(policy_->relay);
    log.stat("core.after_forward").merge(policy_->forward);
    log.stat("core.evaluate").merge(policy_->evaluate);
  }
  log.stat("net.routing").merge(routing_->next);
  log.stat("tap.notifications").calls += tap_.notifications;
  log.stat("tap.notifications_applied").calls += tap_.notifications_applied;
}

}  // namespace perfbench
