#include "exp/trace.hpp"

#include <algorithm>

#include "net/node.hpp"

namespace imobif::exp {

std::size_t TraceRecorder::count(Kind kind) const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [kind](const Entry& e) { return e.kind == kind; }));
}

void TraceRecorder::record(net::Node& node, Kind kind, net::FlowId flow,
                           std::string detail) {
  Entry entry;
  entry.time_s = node.now().seconds();
  entry.kind = kind;
  entry.node = node.id();
  entry.flow = flow;
  entry.detail = std::move(detail);
  entries_.push_back(std::move(entry));
}

void TraceRecorder::on_delivered(net::Node& dest,
                                 const net::DataBody& data) {
  record(dest, Kind::kDelivered, data.flow_id,
         "seq=" + std::to_string(data.seq) +
             " mob=" + (data.mobility_enabled ? "on" : "off"));
}

void TraceRecorder::on_notification_initiated(
    net::Node& dest, const net::NotificationBody& body) {
  record(dest, Kind::kNotificationInitiated, body.flow_id,
         body.enable ? "enable" : "disable");
}

void TraceRecorder::on_notification_retry(
    net::Node& dest, const net::NotificationBody& body) {
  record(dest, Kind::kNotificationRetry, body.flow_id,
         std::string(body.enable ? "enable" : "disable") +
             " attempt=" + std::to_string(body.attempt));
}

void TraceRecorder::on_notification_at_source(
    net::Node& source, const net::NotificationBody& body) {
  record(source, Kind::kNotificationAtSource, body.flow_id,
         body.enable ? "enable" : "disable");
}

void TraceRecorder::on_node_depleted(net::Node& node) {
  record(node, Kind::kNodeDepleted, net::kInvalidFlow, "");
}

void TraceRecorder::on_drop(net::Node& where, net::PacketType type,
                            net::DropReason reason) {
  record(where, Kind::kDrop, net::kInvalidFlow,
         std::string(net::to_string(type)) + "/" + net::to_string(reason));
}

void TraceRecorder::on_recruited(net::Node& recruit,
                                 const net::RecruitBody& body) {
  record(recruit, Kind::kRecruited, body.flow_id,
         "between " + std::to_string(body.upstream) + " and " +
             std::to_string(body.downstream));
}

}  // namespace imobif::exp
