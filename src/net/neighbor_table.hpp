// Neighbor table (framework Section 2, node state item 2):
// "a neighbor table with the identity, location, and residual energy of each
// neighbor", populated from HELLO beacons (and refreshed from the sender
// stamp of any overheard packet). Entries expire after a timeout.
//
// Storage is one vector sorted by id: at the paper's density a node has
// about ten neighbors, so a binary search over contiguous entries beats a
// hash lookup, and every enumeration is in id order without a sort.
#pragma once

#include <optional>
#include <utility>
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

  /// Inserts or refreshes an entry.
  void upsert(NodeId id, geom::Vec2 position, util::Joules residual_energy,
              sim::Time now);

  /// Entry lookup; expired entries are treated as absent.
  std::optional<NeighborInfo> find(NodeId id, sim::Time now) const;

  /// Drops entries not heard from within the timeout.
  void purge(sim::Time now);

  /// Live entries as of `now`, sorted by id (expired entries excluded but
  /// not removed).
  std::vector<NeighborInfo> snapshot(sim::Time now) const;

  /// Every stored entry — including expired ones awaiting a purge — sorted
  /// by id. Checkpointing serializes these verbatim (restoring only live
  /// entries would be behaviorally equivalent but break state-hash
  /// comparison against the original).
  const std::vector<NeighborInfo>& all_entries() const { return entries_; }

  /// Restore-only: replaces every entry with `entries`, which must be
  /// ascending by unique id (the snapshot decoder verifies that).
  void restore_entries(std::vector<NeighborInfo> entries) {
    entries_ = std::move(entries);
  }

  std::size_t size() const { return entries_.size(); }
  sim::Time timeout() const { return timeout_; }
  void set_timeout(sim::Time timeout) { timeout_ = timeout; }

 private:
  bool expired(const NeighborInfo& info, sim::Time now) const {
    return now - info.last_heard > timeout_;
  }
  /// First entry with id >= `id`.
  std::vector<NeighborInfo>::const_iterator lower_bound(NodeId id) const;

  // snap:transient(config from NodeConfig, re-applied at construction)
  sim::Time timeout_;
  /// Ascending by id, ids unique.
  // snap:derived(restore_entries)
  std::vector<NeighborInfo> entries_;
};

}  // namespace imobif::net
