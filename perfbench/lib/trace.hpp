// Tracing for the benchmark's instrumented runs, installed from outside the
// simulator: nothing under src/ knows it exists.
//
// Three pass-through decorators sit on the seams the simulator already
// exposes — a MobilityPolicy around the run's policy (Network::set_policy),
// a RoutingProtocol around a fresh GreedyRouting (Network::set_routing) and
// a NetworkEvents tap (Network::set_event_tap). They time and count every
// call and forward it unchanged. Coarser layer boundaries (sample, create,
// advance, result, the snap calls, thread-pool tasks) are recorded as spans
// by the workload code around its own calls.
//
// Spans and call statistics go to a per-thread SpanLog first and are merged
// into the process-wide Tracer when a task ends; the Tracer writes every
// span out once, when the benchmark finishes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/mobility_policy.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls into one function and the nanoseconds spent inside them.
struct CallStat {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  void add(std::int64_t elapsed) {
    ++calls;
    ns += elapsed;
  }
  void merge(const CallStat& other) {
    calls += other.calls;
    ns += other.ns;
  }
  double mean_ns() const {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

/// Adds the scope's duration to a CallStat.
class Timed {
 public:
  explicit Timed(CallStat& stat) : stat_(stat), start_(now_ns()) {}
  ~Timed() { stat_.add(now_ns() - start_); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  CallStat& stat_;
  std::int64_t start_;
};

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the same log; -1 = root
  std::uint64_t run = 0;     ///< spans of one run share this id
};

/// Single-threaded recorder for one task or run. Closing a span also adds
/// its duration to the CallStat of the same name.
class SpanLog {
 public:
  explicit SpanLog(std::uint64_t run_id) : run_(run_id) {}

  std::size_t open(const std::string& name);
  void close(std::size_t index);

  CallStat& stat(const std::string& name) { return stats_[name]; }
  /// One sample of a distribution (per-run wall times for percentiles).
  void sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

 private:
  friend class Tracer;
  std::uint64_t run_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::map<std::string, CallStat> stats_;
  std::map<std::string, std::vector<double>> samples_;
};

/// RAII span on an optional log (a null log records nothing).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name)
      : log_(log), index_(log ? log->open(name) : 0) {}
  ~ScopedSpan() {
    if (log_) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

/// Process-wide, thread-safe sink for merged logs.
class Tracer {
 public:
  void merge(SpanLog&& log);
  /// Totals and samples merged so far (call after all tasks have merged).
  CallStat stat(const std::string& name) const;
  std::vector<double> samples(const std::string& name) const;
  std::size_t span_count() const;
  /// One JSON object per line: name, start_ns, end_ns, parent, run.
  /// Parents are rebased to indices in the written file.
  void write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, CallStat> stats_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Pass-through MobilityPolicy: times each of the four Figure-1 hooks.
class TracedPolicy final : public imobif::net::MobilityPolicy {
 public:
  explicit TracedPolicy(imobif::net::MobilityPolicy& inner) : inner_(inner) {}

  void seed_at_source(imobif::net::Node& source, imobif::net::DataBody& data,
                      imobif::net::FlowEntry& entry) override;
  void on_relay(imobif::net::Node& relay, imobif::net::DataBody& data,
                imobif::net::FlowEntry& entry) override;
  void after_forward(imobif::net::Node& relay,
                     imobif::net::FlowEntry& entry) override;
  std::optional<bool> evaluate_at_destination(
      imobif::net::Node& dest, const imobif::net::DataBody& data,
      imobif::net::FlowEntry& entry) override;

  CallStat seed, relay, forward, evaluate;

 private:
  imobif::net::MobilityPolicy& inner_;
};

/// Pass-through RoutingProtocol around an owned inner protocol.
class TracedRouting final : public imobif::net::RoutingProtocol {
 public:
  explicit TracedRouting(std::unique_ptr<imobif::net::RoutingProtocol> inner)
      : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }
  imobif::net::NodeId next_hop(const imobif::net::Node& self,
                               imobif::net::NodeId dest) override;
  void handle_control(imobif::net::Node& self,
                      const imobif::net::Packet& pkt) override {
    inner_->handle_control(self, pkt);
  }
  void prepare_route(imobif::net::Node& origin,
                     imobif::net::NodeId dest) override {
    inner_->prepare_route(origin, dest);
  }

  CallStat next;

 private:
  std::unique_ptr<imobif::net::RoutingProtocol> inner_;
};

/// NetworkEvents tap counting status-change notifications. The network
/// does its own bookkeeping before forwarding, so the tap only observes.
class EventTap final : public imobif::net::NetworkEvents {
 public:
  void on_notification_initiated(imobif::net::Node&,
                                 const imobif::net::NotificationBody&) override {
    ++notifications;
  }
  void on_notification_at_source(imobif::net::Node&,
                                 const imobif::net::NotificationBody&) override {
    ++notifications_applied;
  }

  std::uint64_t notifications = 0;
  std::uint64_t notifications_applied = 0;
};

/// The three decorators installed on one network. The network keeps raw
/// pointers to the policy wrapper and the tap, so this object must outlive
/// every further event the network executes; it is neither copied nor moved.
class Instruments {
 public:
  /// Installs a TracedRouting around a fresh GreedyRouting, a TracedPolicy
  /// around `policy` (skipped when null: the network runs without one) and
  /// the event tap.
  Instruments(imobif::net::Network& network, imobif::net::MobilityPolicy* policy);
  Instruments(const Instruments&) = delete;
  Instruments& operator=(const Instruments&) = delete;

  /// Adds the call statistics and tap counts to `log` under the per-layer
  /// metric names (core.*, net.routing, tap.*).
  void flush_to(SpanLog& log) const;

 private:
  std::unique_ptr<TracedPolicy> policy_;
  TracedRouting* routing_ = nullptr;  // owned by the network
  EventTap tap_;
};

}  // namespace perfbench
