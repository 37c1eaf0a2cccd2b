#include "net/neighbor_table.hpp"

#include <algorithm>

namespace imobif::net {

std::vector<NeighborInfo>::const_iterator NeighborTable::lower_bound(
    NodeId id) const {
  return std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const NeighborInfo& info, NodeId key) { return info.id < key; });
}

void NeighborTable::upsert(NodeId id, geom::Vec2 position,
                           util::Joules residual_energy, sim::Time now) {
  const auto it = lower_bound(id);
  const NeighborInfo info{id, position, residual_energy, now};
  if (it != entries_.end() && it->id == id) {
    entries_[static_cast<std::size_t>(it - entries_.begin())] = info;
  } else {
    entries_.insert(it, info);
  }
}

std::optional<NeighborInfo> NeighborTable::find(NodeId id,
                                                sim::Time now) const {
  const auto it = lower_bound(id);
  if (it == entries_.end() || it->id != id || expired(*it, now)) {
    return std::nullopt;
  }
  return *it;
}

void NeighborTable::purge(sim::Time now) {
  std::erase_if(entries_,
                [&](const NeighborInfo& info) { return expired(info, now); });
}

std::vector<NeighborInfo> NeighborTable::snapshot(sim::Time now) const {
  std::vector<NeighborInfo> out;
  out.reserve(entries_.size());
  for (const NeighborInfo& info : entries_) {
    if (!expired(info, now)) out.push_back(info);
  }
  return out;
}

}  // namespace imobif::net
