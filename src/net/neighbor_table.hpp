// Neighbor table (framework Section 2, node state item 2):
// "a neighbor table with the identity, location, and residual energy of each
// neighbor", populated from HELLO beacons (and refreshed from the sender
// stamp of any overheard packet). Entries expire after a timeout.
//
// Storage is one heap block per table (DESIGN.md §12): the id column first,
// ascending and unique, then one 32-byte {position, residual energy, last
// heard} record per id at the same index. At the paper's density (about
// nine neighbors) the id column is 36 bytes, about one cache line. A HELLO
// reception scans it linearly, inline, and then writes one record without
// reading it; Medium::broadcast prefetches the block's first line one
// propagation delay ahead (prefetch()). Every enumeration is in id order
// without a sort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geom/vec2.hpp"
#include "net/ids.hpp"
#include "sim/time.hpp"
#include "util/units.hpp"

namespace imobif::net {

struct NeighborInfo {
  NodeId id = kInvalidNode;
  geom::Vec2 position;
  util::Joules residual_energy;
  sim::Time last_heard;
};

class NeighborTable {
 public:
  explicit NeighborTable(sim::Time timeout = sim::Time::from_seconds(45.0))
      : timeout_(timeout) {}
  ~NeighborTable();
  NeighborTable(const NeighborTable&) = delete;
  NeighborTable& operator=(const NeighborTable&) = delete;

  /// Inserts or refreshes an entry.
  void upsert(NodeId id, geom::Vec2 position, util::Joules residual_energy,
              sim::Time now) {
    const std::size_t i = index_of(id);
    if (i == size_ || ids()[i] != id) insert_id(i, id);
    records()[i] = Record{position, residual_energy, now};
  }

  /// Entry lookup; expired entries are treated as absent.
  std::optional<NeighborInfo> find(NodeId id, sim::Time now) const {
    const std::size_t i = index_of(id);
    if (i == size_ || ids()[i] != id || expired(records()[i], now)) {
      return std::nullopt;
    }
    return entry(i);
  }

  /// Drops entries not heard from within the timeout.
  void purge(sim::Time now);

  /// Live entries as of `now`, sorted by id (expired entries excluded but
  /// not removed).
  std::vector<NeighborInfo> snapshot(sim::Time now) const;

  /// Hints the block's first line, where the id column starts, into the
  /// cache ahead of a delivery.
  void prefetch() const { __builtin_prefetch(block_); }

  /// Stored entries, including expired ones awaiting a purge, in id order:
  /// entry(0) .. entry(size() - 1). Checkpointing serializes these verbatim
  /// (restoring only live entries would be behaviorally equivalent but
  /// break state-hash comparison against the original).
  std::size_t size() const { return size_; }
  NeighborInfo entry(std::size_t index) const {
    const Record& rec = records()[index];
    return NeighborInfo{ids()[index], rec.position, rec.residual_energy,
                        rec.last_heard};
  }

  /// Restore-only: replaces every entry with `entries`, which must be
  /// ascending by unique id (the snapshot decoder verifies that).
  void restore_entries(std::span<const NeighborInfo> entries);

  sim::Time timeout() const { return timeout_; }
  void set_timeout(sim::Time timeout) { timeout_ = timeout; }

 private:
  struct Record {
    geom::Vec2 position;
    util::Joules residual_energy;
    sim::Time last_heard;
  };

  bool expired(const Record& rec, sim::Time now) const {
    return now - rec.last_heard > timeout_;
  }
  NodeId* ids() const { return static_cast<NodeId*>(block_); }
  /// The records follow the id column; an even capacity keeps them
  /// 8-byte aligned.
  Record* records() const {
    return reinterpret_cast<Record*>(ids() + capacity_);
  }
  /// First index whose id is >= `id`: a linear scan, which at about ten
  /// entries beats a binary search and reads the column in order. It
  /// stops at the match, so a column that straddles two lines costs the
  /// second one only when the match lies past the first.
  std::size_t index_of(NodeId id) const {
    const NodeId* col = ids();
    std::size_t i = 0;
    while (i < size_ && col[i] < id) ++i;
    return i;
  }
  /// Opens slot `i` for `id`, shifting later entries up and doubling the
  /// block when it is full; the caller writes the record.
  void insert_id(std::size_t i, NodeId id);
  /// Moves the first size_ entries into a fresh block of `capacity`.
  void reallocate(std::size_t capacity);

  // snap:transient(config from NodeConfig, re-applied at construction)
  sim::Time timeout_;
  /// The id column (capacity_ ids, the first size_ in use), then
  /// capacity_ records; null while capacity_ is 0.
  // snap:derived(restore_entries)
  void* block_ = nullptr;
  // snap:derived(restore_entries)
  std::uint32_t size_ = 0;
  // snap:derived(restore_entries)
  std::uint32_t capacity_ = 0;
};

}  // namespace imobif::net
