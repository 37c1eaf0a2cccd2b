#include "net/flow_table.hpp"

#include <algorithm>

namespace imobif::net {

FlowEntry& FlowTable::get_or_create(const DataBody& data) {
  auto& entry = entries_[data.flow_id];
  if (entry.id == kInvalidFlow) {
    entry.id = data.flow_id;
    entry.source = data.source;
    entry.destination = data.destination;
    entry.strategy = data.strategy;
  }
  return entry;
}

FlowEntry* FlowTable::find(FlowId id) {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

const FlowEntry* FlowTable::find(FlowId id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

FlowEntry& FlowTable::ensure(FlowId id) {
  auto& entry = entries_[id];
  entry.id = id;
  return entry;
}

std::vector<const FlowEntry*> FlowTable::all() const {
  // Sorted by flow id: multi-flow blending folds floating-point sums over
  // this list, so iteration order must not depend on hash-map layout.
  std::vector<const FlowEntry*> out;
  out.reserve(entries_.size());
  // lint:allow(unordered-iteration): extract-then-sort; order fixed below
  for (const auto& [id, entry] : entries_) out.push_back(&entry);
  std::sort(out.begin(), out.end(),
            [](const FlowEntry* a, const FlowEntry* b) {
              return a->id < b->id;
            });
  return out;
}

}  // namespace imobif::net
