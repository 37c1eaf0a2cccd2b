// Routing protocol seam.
//
// The framework sits on top of "lower level routing protocols" (Section 2);
// the evaluation uses greedy geographic routing (Section 4). The library
// provides that, plus a line-biased greedy variant implementing the paper's
// future-work idea of optimizing relay *selection*. Protocols that exchange
// their own control packets or set routes up before a flow (e.g. an AODV
// style on-demand protocol) plug in through the two hooks below; the
// built-in greedy protocols need neither.
#pragma once

#include "net/ids.hpp"
#include "net/packet.hpp"

namespace imobif::net {

class Node;

class RoutingProtocol {
 public:
  virtual ~RoutingProtocol() = default;

  virtual const char* name() const = 0;

  /// Next hop from `self` toward `dest`; kInvalidNode when no route exists.
  virtual NodeId next_hop(const Node& self, NodeId dest) = 0;

  /// Extension seam: Node hands every received kRouteRequest/kRouteReply
  /// packet to its protocol here. The default ignores them.
  virtual void handle_control(Node& self, const Packet& pkt);

  /// Extension seam: route setup a caller may request before a flow
  /// starts. The default does nothing.
  virtual void prepare_route(Node& origin, NodeId dest);
};

}  // namespace imobif::net
