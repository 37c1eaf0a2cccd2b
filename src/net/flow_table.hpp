// Flow table (framework Section 2, node state item 4): for each flow
// traversing the node — source, residual data bits, previous node, mobility
// strategy and status, destination, next node. Plus per-node bookkeeping the
// experiments read back (movement distance, relayed packets, cached target).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "geom/vec2.hpp"
#include "net/ids.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "util/units.hpp"

namespace imobif::net {

struct FlowEntry {
  FlowId id = kInvalidFlow;
  NodeId source = kInvalidNode;
  NodeId destination = kInvalidNode;
  NodeId prev = kInvalidNode;  ///< upstream flow neighbor (link sender)
  NodeId next = kInvalidNode;  ///< downstream flow neighbor (pinned route)
  util::Bits residual_bits;    ///< expected residual flow length
  StrategyId strategy = StrategyId::kNone;
  bool mobility_enabled = false;

  /// Latest strategy target position, cached for inspection/tests.
  std::optional<geom::Vec2> target;

  std::uint64_t packets_relayed = 0;
  util::Meters moved_distance;

  /// Destination-side notification damping state (core policy option):
  /// sequence number of the last status-change request sent upstream.
  std::optional<std::uint32_t> last_notify_seq;

  /// Notification-reliability state (destination side, active when
  /// NodeConfig::notify_retry_cap > 0): the requested status awaiting
  /// confirmation via the source's stamped mobility_enabled, the aggregate
  /// that justified it (re-sent verbatim on retries), the decision
  /// sequence number, attempts so far, and the pending retry timer.
  std::optional<bool> pending_status;
  MobilityAggregate notify_agg;
  std::uint32_t notify_decision_seq = 0;
  std::uint32_t notify_attempts = 0;
  // snap:derived(Node::adopt_event)
  sim::EventId notify_retry_event = 0;

  /// Source side: highest decision sequence already applied; stale or
  /// duplicate notifications (<= this) are ignored instead of re-applied.
  std::uint32_t notify_applied_seq = 0;

  /// Relay-recruitment bookkeeping (core policy option): how many times
  /// this node split its own downstream hop for this flow.
  std::uint32_t recruits_initiated = 0;
};

class FlowTable {
 public:
  /// Fetches the entry, creating it from the data header on first contact
  /// (Figure 1 lines 4-6, AllocateFlowEntry).
  FlowEntry& get_or_create(const DataBody& data);

  FlowEntry* find(FlowId id);
  const FlowEntry* find(FlowId id) const;

  /// Creates/returns an entry directly (used at the flow source).
  FlowEntry& ensure(FlowId id);

  void erase(FlowId id) { entries_.erase(id); }
  std::size_t size() const { return entries_.size(); }

  std::vector<const FlowEntry*> all() const;

 private:
  // snap:derived(ensure)
  std::unordered_map<FlowId, FlowEntry> entries_;
};

}  // namespace imobif::net
