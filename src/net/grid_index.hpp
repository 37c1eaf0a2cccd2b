// Uniform-grid spatial index for range-limited neighbor queries.
//
// Medium::broadcast must find every node within the communication range
// of a transmitter; a linear scan is O(n) per broadcast and dominates at
// 1000+ nodes. This index hashes positions into square cells of side
// `cell_size` (use the communication range), so a range query touches the
// 3x3 cell block around the query point. Entries are updated in-place when
// a node moves (the medium forwards movement updates).
//
// Storage: a power-of-two table of buckets indexed by a multiplicative
// hash of the cell key. Slots store (cell key, id, x, y) inline, so a range
// scan reads contiguous slots, skips the few that belong to another cell
// sharing the bucket, and never chases a per-candidate hash lookup
// (DESIGN.md §12). The table doubles when the ids outnumber the buckets.
// `where_` maps an id to its cell key and is a dense vector: ids are dense,
// as for Medium's id table. There is deliberately no dense cell array over
// the area: positions are not bounded (traces can put nodes anywhere, and
// cell coordinates are clamped to ±2^31).
//
// Visit order is part of the determinism contract: cells are scanned
// x-major then y, and slots of one cell in insertion order (a move to
// another cell is an ordered erase plus an append; a rehash moves whole
// buckets in order), so broadcast delivery order — and with it the fig5-8
// artifacts — is bit-identical across layouts.
//
// Why the block from cell_of(c - r) to cell_of(c + r) holds every hit:
// a hit p satisfies |p - c| <= r, so c.x - r <= p.x <= c.x + r (and the
// same for y), and cell_of is monotone in each coordinate (floor(v/cell)
// of a monotone quotient, then a monotone clamp). So p's cell lies between
// the two corner cells, per axis. That holds in exact arithmetic; the
// scan's cut is the floating-point `distance_sq(p, c) <= r*r`, and
// `c ± r` is rounded too, so only a point within a few ulps of the
// square's edge that also sits within a few ulps of a cell edge could
// differ. IMOBIF_CHECKS builds re-scan the one-cell border around the
// block and assert it adds no hit. With r == cell_size the block is 3x3
// (a rounded c ± r can shift one side by a cell).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "geom/vec2.hpp"
#include "util/check.hpp"

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

  std::size_t size() const { return size_; }
  bool contains(Id id) const {
    return id < where_.size() && where_[id] != kAbsent;
  }
  double cell_size() const { return cell_size_; }

  /// All ids within `radius` of `center` (inclusive), in deterministic
  /// cell/insertion order. The scanned block widens with the radius.
  std::vector<Id> query(geom::Vec2 center, double radius) const;

  // snap:transient(query result value type)
  struct Hit {
    Id id = 0;
    geom::Vec2 position{};
    double distance_sq = 0.0;
  };
  /// Closest indexed id to `center` within `max_radius` (inclusive; may be
  /// infinite); ties in distance break to the lowest id. Expands cell rings
  /// outward and stops as soon as no closer hit is geometrically possible,
  /// so the common case touches a handful of cells. nullopt when nothing
  /// is in range. Throws std::invalid_argument on a NaN radius.
  std::optional<Hit> nearest(geom::Vec2 center, double max_radius) const;

  /// Visits ids within `radius` of `center` without allocating, in the
  /// order described at the top of this file. A negative or NaN radius
  /// matches nothing.
  template <typename Fn>
  void for_each_in_range(geom::Vec2 center, double radius, Fn&& fn) const {
    if (!(radius >= 0.0)) return;
    const Cell lo = cell_of(geom::Vec2{center.x - radius, center.y - radius});
    const Cell hi = cell_of(geom::Vec2{center.x + radius, center.y + radius});
    const double radius_sq = radius * radius;
    for (std::int64_t x = lo.x; x <= hi.x; ++x) {
      for (std::int64_t y = lo.y; y <= hi.y; ++y) {
        for_each_slot_in(Cell{x, y}, [&](const Slot& slot) {
          const geom::Vec2 pos{slot.x, slot.y};
          if (geom::distance_sq(pos, center) <= radius_sq) fn(slot.id, pos);
        });
      }
    }
#if IMOBIF_CHECKS_ENABLED
    for (std::int64_t x = lo.x - 1; x <= hi.x + 1; ++x) {
      for (std::int64_t y = lo.y - 1; y <= hi.y + 1; ++y) {
        if (x >= lo.x && x <= hi.x && y >= lo.y && y <= hi.y) continue;
        for_each_slot_in(Cell{x, y}, [&](const Slot& slot) {
          IMOBIF_ASSERT(
              !(geom::distance_sq(geom::Vec2{slot.x, slot.y}, center) <=
                radius_sq),
              "GridIndex: a hit lies outside the scanned cell block");
        });
      }
    }
#endif
  }

  /// Lower-bound estimate of heap-allocated bytes (scale accounting).
  std::size_t approx_bytes() const;

 private:
  struct Cell {
    std::int64_t x;
    std::int64_t y;
  };
  /// One indexed node: its cell key (buckets are shared between cells)
  /// and its position inline, so range scans stay in the bucket.
  struct Slot {
    std::uint64_t key;
    double x;
    double y;
    Id id;
  };
  /// where_ value of an id not in the index; key() never yields 0.
  static constexpr std::uint64_t kAbsent = 0;

  Cell cell_of(geom::Vec2 p) const;
  static std::uint64_t key(Cell c);
  std::size_t bucket_of(std::uint64_t cell_key) const {
    return static_cast<std::size_t>((cell_key * 0x9e3779b97f4a7c15ULL) >>
                                    shift_);
  }
  /// Calls fn on each slot of `cell`, in insertion order.
  template <typename Fn>
  void for_each_slot_in(Cell cell, Fn&& fn) const {
    const std::uint64_t cell_key = key(cell);
    for (const Slot& slot : buckets_[bucket_of(cell_key)]) {
      if (slot.key == cell_key) fn(slot);
    }
  }
  /// Doubles the bucket table, keeping each cell's slot order.
  void grow();

  double cell_size_;
  /// 64 - log2(buckets_.size()): bucket_of keeps the hash's top bits.
  unsigned shift_;
  std::vector<std::vector<Slot>> buckets_;
  /// id -> key of the cell holding its slot; kAbsent when not indexed.
  std::vector<std::uint64_t> where_;
  std::size_t size_ = 0;
};

}  // namespace imobif::net
