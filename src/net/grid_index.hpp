// Uniform-grid spatial index for range-limited neighbor queries.
//
// Medium::broadcast must find every node within the communication range
// of a transmitter; a linear scan is O(n) per broadcast and dominates at
// 1000+ nodes. This index hashes positions into square cells of side
// `cell_size` (use the communication range), so a range query touches at
// most the 3x3 cell block around the query point. Entries are updated
// in-place when a node moves (the medium forwards movement updates).
//
// Buckets store (id, x, y) inline — a range scan reads contiguous slots
// and never chases a per-candidate hash lookup, which is what caps the
// old layout well short of the 10^5-10^6-node target (DESIGN.md §12).
// Visit order is part of the determinism contract: cells are scanned in
// (dx, dy) ring order and slots within a bucket in insertion order, so
// broadcast delivery order — and with it the fig5-8 artifacts — is
// bit-identical across layouts.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "geom/vec2.hpp"

namespace imobif::net {

// snap:transient(spatial mirror of node positions, refilled by the node-restore loop)
class GridIndex {
 public:
  using Id = std::uint32_t;

  explicit GridIndex(double cell_size);

  /// Inserts an id at a position; the id must not already be present.
  void insert(Id id, geom::Vec2 position);

  /// Moves an existing id; cheap when the cell does not change.
  void update(Id id, geom::Vec2 new_position);

  std::size_t size() const { return where_.size(); }
  bool contains(Id id) const { return where_.count(id) != 0; }
  double cell_size() const { return cell_size_; }

  /// All ids within `radius` of `center` (inclusive), in deterministic
  /// ring/insertion order. Requires radius <= cell_size (one cell ring);
  /// larger radii widen the scanned block automatically.
  std::vector<Id> query(geom::Vec2 center, double radius) const;

  // snap:transient(query result value type)
  struct Hit {
    Id id = 0;
    geom::Vec2 position{};
    double distance_sq = 0.0;
  };
  /// Closest indexed id to `center` within `max_radius` (inclusive);
  /// ties in distance break to the lowest id. Expands cell rings outward
  /// and stops as soon as no closer hit is geometrically possible, so the
  /// common case touches a handful of cells. nullopt when nothing is in
  /// range.
  std::optional<Hit> nearest(geom::Vec2 center, double max_radius) const;

  /// Visits ids within `radius` of `center` without allocating.
  template <typename Fn>
  void for_each_in_range(geom::Vec2 center, double radius, Fn&& fn) const {
    const auto ring = static_cast<std::int64_t>(radius / cell_size_) + 1;
    const Cell base = cell_of(center);
    const double radius_sq = radius * radius;
    for (std::int64_t dx = -ring; dx <= ring; ++dx) {
      for (std::int64_t dy = -ring; dy <= ring; ++dy) {
        const auto it = buckets_.find(key(Cell{base.x + dx, base.y + dy}));
        if (it == buckets_.end()) continue;
        for (const Slot& slot : it->second) {
          const geom::Vec2 pos{slot.x, slot.y};
          if (geom::distance_sq(pos, center) <= radius_sq) fn(slot.id, pos);
        }
      }
    }
  }

  /// Lower-bound estimate of heap-allocated bytes (scale accounting).
  std::size_t approx_bytes() const;

 private:
  struct Cell {
    std::int64_t x;
    std::int64_t y;
  };
  /// One indexed node, position inline so range scans stay in the bucket.
  struct Slot {
    Id id;
    double x;
    double y;
  };

  Cell cell_of(geom::Vec2 p) const;
  static std::uint64_t key(Cell c);

  double cell_size_;
  std::unordered_map<std::uint64_t, std::vector<Slot>> buckets_;
  /// id -> key of the bucket currently holding its slot.
  std::unordered_map<Id, std::uint64_t> where_;
};

}  // namespace imobif::net
