#include "net/neighbor_table.hpp"

#include <algorithm>
#include <bit>

namespace imobif::net {

namespace {

constexpr std::size_t kMinCapacity = 4;

}  // namespace

NeighborTable::~NeighborTable() {
  if (block_ != nullptr) ::operator delete(block_);
}

void NeighborTable::reallocate(std::size_t capacity) {
  static_assert(sizeof(Record) == 32);
  static_assert(kMinCapacity * sizeof(NodeId) % alignof(Record) == 0);
  // Plain malloc alignment: a 64-byte-aligned block cost 11 % peak RSS
  // at 1e5 nodes in allocator padding.
  void* block = ::operator new(capacity * (sizeof(NodeId) + sizeof(Record)));
  auto* new_ids = static_cast<NodeId*>(block);
  std::copy_n(ids(), size_, new_ids);
  std::copy_n(records(), size_,
              reinterpret_cast<Record*>(new_ids + capacity));
  if (block_ != nullptr) ::operator delete(block_);
  block_ = block;
  capacity_ = static_cast<std::uint32_t>(capacity);
}

void NeighborTable::insert_id(std::size_t i, NodeId id) {
  if (size_ == capacity_) {
    reallocate(std::max(kMinCapacity, std::size_t{2} * capacity_));
  }
  std::copy_backward(ids() + i, ids() + size_, ids() + size_ + 1);
  std::copy_backward(records() + i, records() + size_,
                     records() + size_ + 1);
  ids()[i] = id;
  ++size_;
}

void NeighborTable::purge(sim::Time now) {
  NodeId* col = ids();
  Record* recs = records();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    if (expired(recs[i], now)) continue;
    if (kept != i) {
      col[kept] = col[i];
      recs[kept] = recs[i];
    }
    ++kept;
  }
  size_ = static_cast<std::uint32_t>(kept);
}

std::vector<NeighborInfo> NeighborTable::snapshot(sim::Time now) const {
  std::vector<NeighborInfo> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    if (!expired(records()[i], now)) out.push_back(entry(i));
  }
  return out;
}

void NeighborTable::restore_entries(std::span<const NeighborInfo> entries) {
  size_ = 0;
  if (entries.empty()) return;
  reallocate(std::bit_ceil(std::max(kMinCapacity, entries.size())));
  for (const NeighborInfo& info : entries) {
    ids()[size_] = info.id;
    records()[size_] = Record{info.position, info.residual_energy,
                              info.last_heard};
    ++size_;
  }
}

}  // namespace imobif::net
