#include "net/medium.hpp"

#include <stdexcept>

#include "net/node.hpp"
#include "util/check.hpp"

namespace imobif::net {

Medium::Medium(sim::Simulator& sim, MediumConfig config)
    : sim_(sim),
      config_(config),
      index_(config.comm_range_m > 0.0 ? config.comm_range_m : 1.0) {
  if (config_.comm_range_m <= 0.0) {
    throw std::invalid_argument("Medium: comm_range must be > 0");
  }
}

void Medium::attach(Node& node) {
  const NodeId id = node.id();
  if (id < by_id_.size() && by_id_[id] != nullptr) {
    throw std::invalid_argument("Medium: duplicate node id");
  }
  if (id >= by_id_.size()) by_id_.resize(id + 1, nullptr);
  by_id_[id] = &node;
  index_.insert(id, node.position());
}

void Medium::node_moved(NodeId id, geom::Vec2 new_position) {
  // Nodes not (yet) attached to this medium are ignored: a node may move
  // between construction and attach(), which indexes its final position.
  if (find_node(id) != nullptr) index_.update(id, new_position);
}

Node* Medium::find_node(NodeId id) const {
  return id < by_id_.size() ? by_id_[id] : nullptr;
}

geom::Vec2 Medium::true_position(NodeId id) const {
  const Node* node = find_node(id);
  if (node == nullptr) {
    throw std::out_of_range("Medium::true_position: unknown node");
  }
  return node->position();
}

PacketSlab::Slot PacketSlab::put(const Packet& pkt, std::uint32_t refs) {
  IMOBIF_ASSERT(refs > 0, "stored a packet nothing reads");
  if (free_.empty()) {
    packets_.push_back(pkt);
    refs_.push_back(refs);
    return static_cast<Slot>(packets_.size() - 1);
  }
  const Slot slot = free_.back();
  free_.pop_back();
  packets_[slot] = pkt;
  refs_[slot] = refs;
  return slot;
}

void PacketSlab::release(Slot slot) {
  IMOBIF_ASSERT(refs_[slot] > 0, "released a free packet slot");
  if (--refs_[slot] == 0) free_.push_back(slot);
}

void Medium::deliver_later(NodeId receiver, PacketSlab::Slot slot) {
  ++counters_.delivered;
  sim_.fanout(sim_.now() + config_.prop_delay, slot, {&receiver, 1});
}

void Medium::deliver(NodeId receiver, PacketSlab::Slot slot) {
  Node* node = find_node(receiver);
  IMOBIF_ASSERT(node != nullptr, "delivery to a node the medium never saw");
  node->handle_receive(packets_.get(slot));
  packets_.release(slot);
}

void Medium::broadcast(const Node& sender, const Packet& pkt) {
  ++counters_.broadcasts;
  const geom::Vec2 origin = sender.position();
  receivers_.clear();
  index_.for_each_in_range(
      origin, config_.comm_range_m, [&](NodeId id, geom::Vec2) {
        if (id == sender.id()) return;
        Node* node = by_id_[id];
        if (!node->alive()) return;
        if (node->faulted()) {
          ++counters_.dropped_faulted;
          return;
        }
        if (injector_ != nullptr && injector_->should_drop(sender.id(), id)) {
          ++counters_.dropped_injected;
          return;
        }
        node->neighbors().prefetch();
        receivers_.push_back(id);
      });
  if (receivers_.empty()) return;
  const auto count = static_cast<std::uint32_t>(receivers_.size());
  counters_.delivered += count;
  sim_.fanout(sim_.now() + config_.prop_delay, packets_.put(pkt, count),
              receivers_);
}

bool Medium::unicast(const Node& sender, NodeId dest, const Packet& pkt) {
  ++counters_.unicasts;
  Node* node = find_node(dest);
  if (node == nullptr) {
    ++counters_.dropped_unknown;
    return false;
  }
  if (!node->alive()) {
    ++counters_.dropped_dead;
    return false;
  }
  // A crashed/paused node fails link-layer-visibly like a dead one, so the
  // sender's local repair can route around it.
  if (node->faulted()) {
    ++counters_.dropped_faulted;
    return false;
  }
  if (config_.unicast_range_gated &&
      geom::distance(sender.position(), node->position()) >
          config_.comm_range_m) {
    ++counters_.dropped_out_of_range;
    return false;
  }
  if (injector_ != nullptr && injector_->should_drop(sender.id(), dest)) {
    ++counters_.dropped_injected;
    return true;  // silent loss: accepted by the channel, never delivered
  }
  deliver_later(dest, packets_.put(pkt));
  return true;
}

void Medium::install_fault_plan(const FaultPlan& plan) {
  plan.validate();
  if (!plan.enabled()) return;
  if (plan.has_loss()) injector_ = std::make_unique<FaultInjector>(plan);
  for (const FaultPlan::CrashEvent& crash : plan.crashes) {
    sim_.at(sim::Time::from_seconds(crash.at_s),
            sim::EventTag::fault_set(crash.node, true));
    if (crash.duration_s >= 0.0) {
      sim_.at(sim::Time::from_seconds(crash.at_s + crash.duration_s),
              sim::EventTag::fault_set(crash.node, false));
    }
  }
}

FaultInjector& Medium::restore_fault_injector(const FaultPlan& plan) {
  plan.validate();
  injector_ = std::make_unique<FaultInjector>(plan);
  return *injector_;
}

}  // namespace imobif::net
