#include "net/grid_index.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace imobif::net {

GridIndex::GridIndex(double cell_size) : cell_size_(cell_size) {
  if (cell_size <= 0.0) {
    throw std::invalid_argument("GridIndex: cell_size must be > 0");
  }
}

GridIndex::Cell GridIndex::cell_of(geom::Vec2 p) const {
  // key() keeps 32 bits of each cell coordinate, so cells past that range
  // alias anyway. Clamping to it keeps the conversion defined for any
  // coordinate, NaN included (it fails the first comparison).
  constexpr double kLimit = 2147483647.0;
  const auto axis = [&](double v) {
    const double c = std::floor(v / cell_size_);
    return static_cast<std::int64_t>(c >= -kLimit ? (c <= kLimit ? c : kLimit)
                                                  : -kLimit);
  };
  return Cell{axis(p.x), axis(p.y)};
}

std::uint64_t GridIndex::key(Cell c) {
  // Interleave-free pairing: offset into unsigned halves.
  const auto ux = static_cast<std::uint64_t>(c.x + (1LL << 31));
  const auto uy = static_cast<std::uint64_t>(c.y + (1LL << 31));
  return (ux << 32) | (uy & 0xffffffffULL);
}

void GridIndex::insert(Id id, geom::Vec2 position) {
  const std::uint64_t cell_key = key(cell_of(position));
  if (!where_.emplace(id, cell_key).second) {
    throw std::invalid_argument("GridIndex: duplicate id");
  }
  buckets_[cell_key].push_back(Slot{id, position.x, position.y});
}

void GridIndex::update(Id id, geom::Vec2 new_position) {
  const auto it = where_.find(id);
  if (it == where_.end()) {
    throw std::out_of_range("GridIndex: update of unknown id");
  }
  const std::uint64_t old_key = it->second;
  const std::uint64_t new_key = key(cell_of(new_position));
  auto& old_bucket = buckets_[old_key];
  const auto slot = std::find_if(
      old_bucket.begin(), old_bucket.end(),
      [id](const Slot& s) { return s.id == id; });
  if (old_key == new_key) {
    slot->x = new_position.x;
    slot->y = new_position.y;
    return;
  }
  // Ordered erase: within-bucket insertion order is part of the broadcast
  // delivery order contract, so no swap-with-back shortcut.
  old_bucket.erase(slot);
  if (old_bucket.empty()) buckets_.erase(old_key);
  buckets_[new_key].push_back(Slot{id, new_position.x, new_position.y});
  it->second = new_key;
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
  if (max_radius < 0.0 || where_.empty()) return std::nullopt;
  const Cell base = cell_of(center);
  const double max_sq = max_radius * max_radius;
  const auto max_ring = static_cast<std::int64_t>(max_radius / cell_size_) + 1;
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
    const auto it = buckets_.find(key(Cell{cx, cy}));
    if (it == buckets_.end()) return;
    for (const Slot& slot : it->second) consider(slot);
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
    // Perimeter of the ring, same (dx, dy) sweep order as
    // for_each_in_range for determinism.
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
  std::size_t bucket_bytes = 0;
  // astlint:allow(unordered-iteration): integer capacity sum, commutative
  for (const auto& [cell_key, bucket] : buckets_) {
    (void)cell_key;
    bucket_bytes += bucket.capacity() * sizeof(Slot);
  }
  // Flat estimates for the node-based maps: payload plus two pointers of
  // bookkeeping per node; a floor, not an exact figure.
  using BucketPair =
      std::pair<const std::uint64_t, std::vector<Slot>>;
  using WherePair = std::pair<const Id, std::uint64_t>;
  return bucket_bytes +
         buckets_.size() * (sizeof(BucketPair) + 2 * sizeof(void*)) +
         where_.size() * (sizeof(WherePair) + 2 * sizeof(void*));
}

}  // namespace imobif::net
