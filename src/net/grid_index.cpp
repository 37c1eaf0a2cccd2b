#include "net/grid_index.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace imobif::net {

namespace {
// key() keeps 32 bits of each cell coordinate; cell_of clamps to this.
constexpr double kCellLimit = 2147483647.0;
// Initial bucket count, a power of two (the table doubles from here).
constexpr unsigned kInitialBucketBits = 6;
}  // namespace

GridIndex::GridIndex(double cell_size)
    : cell_size_(cell_size),
      shift_(64 - kInitialBucketBits),
      buckets_(std::size_t{1} << kInitialBucketBits) {
  if (cell_size <= 0.0) {
    throw std::invalid_argument("GridIndex: cell_size must be > 0");
  }
}

GridIndex::Cell GridIndex::cell_of(geom::Vec2 p) const {
  // Cells past key()'s range alias anyway. Clamping to it keeps the
  // conversion defined for any coordinate, NaN included (it fails the
  // first comparison).
  const auto axis = [&](double v) {
    const double c = std::floor(v / cell_size_);
    return static_cast<std::int64_t>(
        c >= -kCellLimit ? (c <= kCellLimit ? c : kCellLimit) : -kCellLimit);
  };
  return Cell{axis(p.x), axis(p.y)};
}

std::uint64_t GridIndex::key(Cell c) {
  // Interleave-free pairing: offset into unsigned halves. A clamped x
  // offsets to at least 1, so no cell_of cell has key 0 (kAbsent).
  const auto ux = static_cast<std::uint64_t>(c.x + (1LL << 31));
  const auto uy = static_cast<std::uint64_t>(c.y + (1LL << 31));
  return (ux << 32) | (uy & 0xffffffffULL);
}

void GridIndex::grow() {
  std::vector<std::vector<Slot>> old(buckets_.size() * 2);
  old.swap(buckets_);
  --shift_;
  // A cell's slots all sit in one old bucket, in order, and land in one
  // new bucket in that order.
  for (const std::vector<Slot>& bucket : old) {
    for (const Slot& slot : bucket) {
      buckets_[bucket_of(slot.key)].push_back(slot);
    }
  }
}

void GridIndex::insert(Id id, geom::Vec2 position) {
  if (contains(id)) throw std::invalid_argument("GridIndex: duplicate id");
  if (id >= where_.size()) where_.resize(std::size_t{id} + 1, kAbsent);
  const std::uint64_t cell_key = key(cell_of(position));
  where_[id] = cell_key;
  if (++size_ > buckets_.size()) grow();
  buckets_[bucket_of(cell_key)].push_back(
      Slot{cell_key, position.x, position.y, id});
}

void GridIndex::update(Id id, geom::Vec2 new_position) {
  if (!contains(id)) {
    throw std::out_of_range("GridIndex: update of unknown id");
  }
  const std::uint64_t old_key = where_[id];
  const std::uint64_t new_key = key(cell_of(new_position));
  std::vector<Slot>& old_bucket = buckets_[bucket_of(old_key)];
  const auto slot = std::find_if(
      old_bucket.begin(), old_bucket.end(),
      [id](const Slot& s) { return s.id == id; });
  if (old_key == new_key) {
    slot->x = new_position.x;
    slot->y = new_position.y;
    return;
  }
  // Ordered erase: within-cell insertion order is part of the broadcast
  // delivery order contract, so no swap-with-back shortcut.
  old_bucket.erase(slot);
  buckets_[bucket_of(new_key)].push_back(
      Slot{new_key, new_position.x, new_position.y, id});
  where_[id] = new_key;
}

std::vector<GridIndex::Id> GridIndex::query(geom::Vec2 center,
                                            double radius) const {
  std::vector<Id> out;
  for_each_in_range(center, radius,
                    [&out](Id id, geom::Vec2) { out.push_back(id); });
  return out;
}

std::optional<GridIndex::Hit> GridIndex::nearest(geom::Vec2 center,
                                                 double max_radius) const {
  if (std::isnan(max_radius)) {
    throw std::invalid_argument("GridIndex::nearest: radius is NaN");
  }
  if (max_radius < 0.0 || size_ == 0) return std::nullopt;
  const Cell base = cell_of(center);
  const double max_sq = max_radius * max_radius;
  // No ring past key()'s cell range reaches a new cell, so the ring count
  // is clamped like cell_of's coordinates; an infinite radius stays
  // defined.
  const auto max_ring =
      static_cast<std::int64_t>(
          std::min(std::floor(max_radius / cell_size_), 2.0 * kCellLimit)) +
      1;
  std::optional<Hit> best;

  const auto consider = [&](const Slot& slot) {
    const double d_sq =
        geom::distance_sq(geom::Vec2{slot.x, slot.y}, center);
    if (d_sq > max_sq) return;
    // Strictly closer wins; equal distance breaks to the lowest id. Only
    // `<` comparisons so exact float ties resolve deterministically.
    const bool better =
        !best || d_sq < best->distance_sq ||
        (!(best->distance_sq < d_sq) && slot.id < best->id);
    if (better) best = Hit{slot.id, geom::Vec2{slot.x, slot.y}, d_sq};
  };
  const auto scan_cell = [&](std::int64_t cx, std::int64_t cy) {
    for_each_slot_in(Cell{cx, cy}, consider);
  };

  for (std::int64_t ring = 0; ring <= max_ring; ++ring) {
    // Once a best exists, a wider ring can only help while its nearest
    // possible point is closer than the current best: cells at Chebyshev
    // ring r are at least (r-1)*cell away from the center.
    if (best) {
      const double ring_floor =
          static_cast<double>(ring - 1) * cell_size_;
      if (ring_floor > 0.0 && ring_floor * ring_floor > best->distance_sq) {
        break;
      }
    }
    if (ring == 0) {
      scan_cell(base.x, base.y);
      continue;
    }
    // Perimeter of the ring, x-major then y like for_each_in_range.
    for (std::int64_t dx = -ring; dx <= ring; ++dx) {
      if (dx == -ring || dx == ring) {
        for (std::int64_t dy = -ring; dy <= ring; ++dy) {
          scan_cell(base.x + dx, base.y + dy);
        }
      } else {
        scan_cell(base.x + dx, base.y - ring);
        scan_cell(base.x + dx, base.y + ring);
      }
    }
  }
  return best;
}

std::size_t GridIndex::approx_bytes() const {
  std::size_t bytes = buckets_.capacity() * sizeof(std::vector<Slot>) +
                      where_.capacity() * sizeof(std::uint64_t);
  for (const std::vector<Slot>& bucket : buckets_) {
    bytes += bucket.capacity() * sizeof(Slot);
  }
  return bytes;
}

}  // namespace imobif::net
