// Packet formats.
//
// Every packet carries a SenderStamp (the transmitting node's identity,
// position and residual energy) — the paper embeds exactly this information
// in HELLO messages, and piggybacking it on all traffic keeps the
// flow-neighbor information used by the mobility strategies fresh.
//
// DATA packets carry the iMobif header of Section 2: the flow's mobility
// strategy and status chosen by the source, the expected residual flow
// length in bits, and the cost/benefit aggregate (sustainable-bits and
// expected-residual-energy, each for the with-mobility and without-mobility
// alternatives) folded in hop by hop.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <variant>

#include "geom/vec2.hpp"
#include "net/ids.hpp"
#include "util/units.hpp"

namespace imobif::net {

/// Values are snapshot wire values and equal the index of the packet's body
/// in Packet::body (pinned in snap/snapshot.cpp): append, never reorder.
enum class PacketType : std::uint8_t {
  kHello,
  kData,
  kNotification,
  kRouteRequest,
  kRouteReply,
  kRecruit,
};

const char* to_string(PacketType type);

/// Identity of the mobility strategy stamped into DATA headers.
enum class StrategyId : std::uint8_t {
  kNone = 0,
  kMinTotalEnergy = 1,  ///< Section 3.1 (Goldenberg et al. midpoint rule)
  kMaxLifetime = 2,     ///< Section 3.2 (Theorem 1 approximation)
};

const char* to_string(StrategyId id);

/// Link-layer sender information piggybacked on every packet.
struct SenderStamp {
  NodeId id = kInvalidNode;
  geom::Vec2 position;
  util::Joules residual_energy;
};

/// The two application-independent metrics of Section 2, carried twice:
/// once for the mobility alternative and once for the non-mobility one.
/// `bits` aggregates with min at every strategy; `resi` aggregates with the
/// strategy-specific function (sum for min-total-energy, min for
/// max-lifetime).
struct MobilityAggregate {
  util::Bits bits_mob;
  util::Joules resi_mob;
  util::Bits bits_nomob;
  util::Joules resi_nomob;
};

struct HelloBody {};

struct DataBody {
  FlowId flow_id = kInvalidFlow;
  NodeId source = kInvalidNode;
  NodeId destination = kInvalidNode;
  std::uint32_t seq = 0;
  util::Bits payload_bits;
  /// Expected residual flow length in bits *after* this packet, as estimated
  /// by the source (Section 2: "the flow length estimate is provided by the
  /// application").
  util::Bits residual_flow_bits;
  StrategyId strategy = StrategyId::kNone;
  bool mobility_enabled = false;
  MobilityAggregate agg;
  std::uint16_t hop_count = 0;

  /// Hop-receiver benefit estimator (see core/imobif_policy.hpp): the
  /// transmitting node's planned position and the movement energy it still
  /// needs to get there. Local information, carried one hop downstream so
  /// the receiver can evaluate the hop with both endpoints at their planned
  /// positions.
  bool sender_has_plan = false;
  geom::Vec2 sender_target;
  util::Joules sender_move_cost;
};

/// Destination -> source status-change request (Figure 1,
/// UpdateMobilityStatus). Carries the aggregate that justified the change.
struct NotificationBody {
  FlowId flow_id = kInvalidFlow;
  NodeId flow_source = kInvalidNode;
  bool enable = false;
  MobilityAggregate agg;
  /// Destination's per-flow decision number, monotonically increasing.
  /// The source applies a notification only when its sequence exceeds the
  /// last applied one, so a retransmission of an old decision arriving
  /// after a newer one (possible once paths repair mid-flow) can never
  /// flip the status backwards.
  std::uint32_t decision_seq = 0;
  /// 0 on the first transmission of a decision; > 0 on reliability-layer
  /// retransmissions (saturates at 255).
  std::uint8_t attempt = 0;
};

/// Route-discovery control formats (request and reply) for protocols that
/// plug in through RoutingProtocol::handle_control. The library's greedy
/// protocols send none; the formats stay because their PacketType values
/// and body indices (3, 4) are snapshot wire values (snap/snapshot.cpp).
struct RouteRequestBody {
  NodeId origin = kInvalidNode;
  NodeId target = kInvalidNode;
  std::uint32_t request_id = 0;
  std::uint32_t origin_seq = 0;
  std::uint16_t hop_count = 0;
};

struct RouteReplyBody {
  NodeId origin = kInvalidNode;
  NodeId target = kInvalidNode;
  std::uint32_t target_seq = 0;
  std::uint16_t hop_count = 0;
};

/// Relay-recruitment invitation (paper Section 5 future work: optimizing
/// the *selection* of intermediate flow nodes): an existing relay with an
/// expensive hop invites an idle neighbor to join the flow path between
/// itself and its current next hop. The invitee pre-installs a flow entry
/// so subsequent DATA packets route through it.
struct RecruitBody {
  FlowId flow_id = kInvalidFlow;
  NodeId flow_source = kInvalidNode;
  NodeId flow_destination = kInvalidNode;
  NodeId upstream = kInvalidNode;    ///< the recruiting relay
  NodeId downstream = kInvalidNode;  ///< the recruiter's old next hop
  StrategyId strategy = StrategyId::kNone;
  util::Bits residual_flow_bits;
  bool mobility_enabled = false;
};

struct Packet {
  PacketType type = PacketType::kHello;
  SenderStamp sender;
  NodeId link_dest = kBroadcast;  ///< kBroadcast or a unicast node id
  util::Bits size_bits;
  std::variant<HelloBody, DataBody, NotificationBody, RouteRequestBody,
               RouteReplyBody, RecruitBody>
      body;
};

std::ostream& operator<<(std::ostream& os, const Packet& pkt);

}  // namespace imobif::net
