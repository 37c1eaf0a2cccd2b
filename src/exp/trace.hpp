// TraceRecorder: captures the network's event stream (deliveries,
// notifications, deaths, drops) as timestamped entries that tests count
// and inspect. Install with Network::set_event_tap().
#pragma once

#include <string>
#include <vector>

#include "net/network.hpp"

namespace imobif::exp {

// snap:transient(diagnostic trace output, not restored by snapshots)
class TraceRecorder : public net::NetworkEvents {
 public:
  enum class Kind {
    kDelivered,
    kNotificationInitiated,
    kNotificationRetry,
    kNotificationAtSource,
    kNodeDepleted,
    kDrop,
    kRecruited,
  };

  // snap:transient(trace record value type)
  struct Entry {
    double time_s = 0.0;
    Kind kind = Kind::kDelivered;
    net::NodeId node = net::kInvalidNode;
    net::FlowId flow = net::kInvalidFlow;
    std::string detail;
  };

  const std::vector<Entry>& entries() const { return entries_; }
  std::size_t count(Kind kind) const;
  void clear() { entries_.clear(); }

  // net::NetworkEvents
  void on_delivered(net::Node& dest, const net::DataBody& data) override;
  void on_notification_initiated(net::Node& dest,
                                 const net::NotificationBody& body) override;
  void on_notification_retry(net::Node& dest,
                             const net::NotificationBody& body) override;
  void on_notification_at_source(net::Node& source,
                                 const net::NotificationBody& body) override;
  void on_node_depleted(net::Node& node) override;
  void on_drop(net::Node& where, net::PacketType type,
               net::DropReason reason) override;
  void on_recruited(net::Node& recruit,
                    const net::RecruitBody& body) override;

 private:
  void record(net::Node& node, Kind kind, net::FlowId flow,
              std::string detail);

  std::vector<Entry> entries_;
};

}  // namespace imobif::exp
