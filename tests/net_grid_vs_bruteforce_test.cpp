// Differential property test: GridIndex vs a brute-force reference.
//
// The grid is the ONLY neighbor-discovery path in the simulator (DESIGN.md
// §12) — routing, recruitment, and the admission oracle all stopped scanning
// every node. That makes its exact agreement with the O(N) linear scan a
// correctness invariant, not a performance detail: any divergence silently
// changes neighbor sets and breaks the fig5-8 bit-identity contract. The
// brute-force scan survives only here, as the oracle.
//
// Clouds are seeded and deliberately adversarial: positions exactly on cell
// boundaries (integer multiples of the cell size, where floor-based cell
// assignment is most fragile), coincident points, and dense random fill.
//
// The sorted comparisons check the hit *set*; the ordered reference at the
// end checks the hit *sequence*, which is the determinism contract that
// broadcast delivery order rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "geom/vec2.hpp"
#include "net/grid_index.hpp"
#include "util/rng.hpp"

namespace imobif::net {
namespace {

struct RefPoint {
  GridIndex::Id id;
  geom::Vec2 position;
};

/// Brute-force oracle: every id within `radius` (inclusive), ascending id.
std::vector<GridIndex::Id> brute_range(const std::vector<RefPoint>& points,
                                       geom::Vec2 center, double radius) {
  std::vector<GridIndex::Id> out;
  const double radius_sq = radius * radius;
  for (const RefPoint& p : points) {
    if (geom::distance_sq(p.position, center) <= radius_sq) {
      out.push_back(p.id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Brute-force oracle for nearest(): minimum distance, ties to lowest id.
/// Mirrors the grid's contract exactly, including the `<`-only comparisons.
std::optional<GridIndex::Hit> brute_nearest(
    const std::vector<RefPoint>& points, geom::Vec2 center,
    double max_radius) {
  std::optional<GridIndex::Hit> best;
  const double max_sq = max_radius * max_radius;
  for (const RefPoint& p : points) {
    const double d_sq = geom::distance_sq(p.position, center);
    if (d_sq > max_sq) continue;
    const bool better =
        !best.has_value() || d_sq < best->distance_sq ||
        (!(best->distance_sq < d_sq) && p.id < best->id);
    if (better) best = GridIndex::Hit{p.id, p.position, d_sq};
  }
  return best;
}

std::vector<GridIndex::Id> grid_range_via_for_each(const GridIndex& index,
                                                   geom::Vec2 center,
                                                   double radius) {
  std::vector<GridIndex::Id> out;
  index.for_each_in_range(center, radius,
                          [&](GridIndex::Id id, geom::Vec2) {
                            out.push_back(id);
                          });
  std::sort(out.begin(), out.end());
  return out;
}

void expect_agreement(const GridIndex& index,
                      const std::vector<RefPoint>& points, geom::Vec2 center,
                      double radius, const char* what) {
  const auto expected = brute_range(points, center, radius);

  auto via_query = index.query(center, radius);
  std::sort(via_query.begin(), via_query.end());
  EXPECT_EQ(via_query, expected) << what << ": query() diverged at center ("
                                 << center.x << ", " << center.y
                                 << ") radius " << radius;

  const auto via_for_each = grid_range_via_for_each(index, center, radius);
  EXPECT_EQ(via_for_each, expected)
      << what << ": for_each_in_range() diverged at center (" << center.x
      << ", " << center.y << ") radius " << radius;

  const auto expected_nearest = brute_nearest(points, center, radius);
  const auto got_nearest = index.nearest(center, radius);
  ASSERT_EQ(got_nearest.has_value(), expected_nearest.has_value())
      << what << ": nearest() presence diverged";
  if (got_nearest.has_value()) {
    EXPECT_EQ(got_nearest->id, expected_nearest->id)
        << what << ": nearest() picked a different id at center ("
        << center.x << ", " << center.y << ")";
    EXPECT_EQ(got_nearest->distance_sq, expected_nearest->distance_sq);
  }
}

// Positions exactly on integer multiples of the cell size: the floor-based
// cell assignment puts each on a cell edge or corner, where an off-by-one
// in the ring bound would drop candidates.
TEST(GridVsBruteForce, CellBoundaryLattice) {
  constexpr double kCell = 180.0;
  GridIndex index(kCell);
  std::vector<RefPoint> points;
  GridIndex::Id next = 0;
  for (int ix = -3; ix <= 3; ++ix) {
    for (int iy = -3; iy <= 3; ++iy) {
      const geom::Vec2 p{ix * kCell, iy * kCell};
      index.insert(next, p);
      points.push_back({next, p});
      ++next;
    }
  }
  // Query from lattice points, cell centers, and just-off-boundary spots
  // with radii that land exactly on lattice distances.
  const std::vector<geom::Vec2> centers = {
      {0.0, 0.0},          {kCell, kCell},        {0.5 * kCell, 0.5 * kCell},
      {-kCell, 2 * kCell}, {kCell - 1e-9, kCell}, {3 * kCell, 3 * kCell}};
  const std::vector<double> radii = {0.0,         kCell,          2.0 * kCell,
                                     0.5 * kCell, kCell * 1.4143, 10.0 * kCell};
  for (const auto& c : centers) {
    for (const double r : radii) {
      expect_agreement(index, points, c, r, "lattice");
    }
  }
}

// Coincident points must all be reported by range queries, and nearest()
// must break the tie to the lowest id regardless of insertion order.
TEST(GridVsBruteForce, CoincidentPoints) {
  GridIndex index(100.0);
  std::vector<RefPoint> points;
  const geom::Vec2 spot{123.456, -78.9};
  // Insert in descending id order so "first inserted wins" would get the
  // tie-break wrong.
  for (GridIndex::Id id = 9; id != GridIndex::Id(-1) && id >= 4; --id) {
    index.insert(id, spot);
    points.push_back({id, spot});
  }
  index.insert(0, {spot.x + 50.0, spot.y});
  points.push_back({0, {spot.x + 50.0, spot.y}});

  expect_agreement(index, points, spot, 0.0, "coincident");
  expect_agreement(index, points, spot, 60.0, "coincident");
  const auto hit = index.nearest(spot, 500.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id, 4u);  // lowest id among the coincident stack
}

// Seeded random clouds over a mixed insert / move / query workload, with
// every third position snapped to the cell lattice so boundary cases keep
// appearing as the cloud churns.
TEST(GridVsBruteForce, RandomCloudsWithChurn) {
  for (const std::uint64_t seed : {20050610ULL, 7ULL, 424242ULL}) {
    util::Rng rng(seed);
    constexpr double kCell = 180.0;
    GridIndex index(kCell);
    std::vector<RefPoint> points;

    const auto random_position = [&](int salt) {
      geom::Vec2 p{rng.uniform(-2000.0, 2000.0),
                   rng.uniform(-2000.0, 2000.0)};
      if (salt % 3 == 0) {
        p.x = std::floor(p.x / kCell) * kCell;  // exactly on a cell edge
      }
      if (salt % 5 == 0) {
        p.y = std::floor(p.y / kCell) * kCell;
      }
      return p;
    };

    for (GridIndex::Id id = 0; id < 300; ++id) {
      const geom::Vec2 p = random_position(static_cast<int>(id));
      index.insert(id, p);
      points.push_back({id, p});
    }

    for (int step = 0; step < 400; ++step) {
      const int op = static_cast<int>(rng.uniform_int(0, 3));
      if (op == 0 && !points.empty()) {
        const auto k = static_cast<std::size_t>(
            rng.uniform_int(0, points.size() - 1));
        const geom::Vec2 p = random_position(step);
        index.update(points[k].id, p);
        points[k].position = p;
      } else {
        const geom::Vec2 center{rng.uniform(-2200.0, 2200.0),
                                rng.uniform(-2200.0, 2200.0)};
        const double radius = rng.uniform(0.0, 600.0);
        expect_agreement(index, points, center, radius, "churn");
      }
    }
    // Final full-cloud sweep at the communication-range radius.
    expect_agreement(index, points, {0.0, 0.0}, kCell, "final");
    expect_agreement(index, points, {0.0, 0.0}, 5000.0, "final-wide");
  }
}

// nearest() must keep expanding rings past empty cells: a lone far point
// is still found when max_radius allows it, and missed when it does not.
TEST(GridVsBruteForce, NearestAcrossEmptyRings) {
  GridIndex index(100.0);
  std::vector<RefPoint> points;
  index.insert(42, {1250.0, 0.0});
  points.push_back({42, {1250.0, 0.0}});

  expect_agreement(index, points, {0.0, 0.0}, 1300.0, "far-hit");
  EXPECT_FALSE(index.nearest({0.0, 0.0}, 1000.0).has_value());
  const auto hit = index.nearest({0.0, 0.0}, 1250.0);  // inclusive boundary
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id, 42u);
}

// The ring-termination bound must not stop early when a closer point sits
// in a *later* ring than the first hit (possible near cell corners).
TEST(GridVsBruteForce, NearestRingTermination) {
  GridIndex index(100.0);
  std::vector<RefPoint> points;
  // First hit shows up in ring 1 (cell distance), but the true nearest by
  // Euclidean distance lies in ring 2 almost straight down.
  index.insert(1, {199.0, 199.0});  // ring 1 corner, distance ~281
  points.push_back({1, {199.0, 199.0}});
  index.insert(2, {0.0, 250.0});  // ring 2, distance 250
  points.push_back({2, {0.0, 250.0}});

  const auto got = index.nearest({0.0, 0.0}, 1000.0);
  const auto want = brute_nearest(points, {0.0, 0.0}, 1000.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, want->id);
  EXPECT_EQ(got->id, 2u);
}

/// Ordered oracle: the visit-order contract spelled out without a grid.
/// Hits come in (cell x, cell y, insertion order into that cell), and a
/// move to another cell is an ordered erase plus an append to the new one.
class OrderedReference {
 public:
  explicit OrderedReference(double cell) : cell_(cell) {}

  void insert(GridIndex::Id id, geom::Vec2 p) {
    cells_[cell_of(p)].push_back({id, p});
    where_[id] = cell_of(p);
  }

  void update(GridIndex::Id id, geom::Vec2 p) {
    const Cell from = where_.at(id);
    const Cell to = cell_of(p);
    std::vector<RefPoint>& bucket = cells_[from];
    const auto it = std::find_if(bucket.begin(), bucket.end(),
                                 [id](const RefPoint& r) { return r.id == id; });
    if (from == to) {
      it->position = p;
      return;
    }
    bucket.erase(it);
    cells_[to].push_back({id, p});
    where_[id] = to;
  }

  std::vector<GridIndex::Id> range(geom::Vec2 center, double radius) const {
    std::vector<GridIndex::Id> out;
    const double radius_sq = radius * radius;
    for (const auto& [cell, bucket] : cells_) {
      for (const RefPoint& p : bucket) {
        if (geom::distance_sq(p.position, center) <= radius_sq) {
          out.push_back(p.id);
        }
      }
    }
    return out;
  }

  std::vector<RefPoint> points() const {
    std::vector<RefPoint> out;
    for (const auto& [cell, bucket] : cells_) {
      out.insert(out.end(), bucket.begin(), bucket.end());
    }
    return out;
  }

 private:
  using Cell = std::pair<std::int64_t, std::int64_t>;
  Cell cell_of(geom::Vec2 p) const {
    return {static_cast<std::int64_t>(std::floor(p.x / cell_)),
            static_cast<std::int64_t>(std::floor(p.y / cell_))};
  }

  double cell_;
  std::map<Cell, std::vector<RefPoint>> cells_;  // (x, y) lexicographic
  std::map<GridIndex::Id, Cell> where_;
};

void expect_same_sequence(const GridIndex& index, const OrderedReference& ref,
                          geom::Vec2 center, double radius, int step) {
  const std::vector<GridIndex::Id> expected = ref.range(center, radius);
  std::vector<GridIndex::Id> visited;
  index.for_each_in_range(center, radius, [&](GridIndex::Id id, geom::Vec2) {
    visited.push_back(id);
  });
  ASSERT_EQ(visited, expected)
      << "step " << step << ": for_each_in_range order at (" << center.x
      << ", " << center.y << ") radius " << radius;
  ASSERT_EQ(index.query(center, radius), expected) << "step " << step;
}

// Exact hit sequences against the ordered oracle while the index grows
// from empty to thousands of dense ids, under moves within and between
// cells, negative coordinates, cell-edge lattice positions, and the radii
// the simulator uses: the cell size itself (Medium), the padded
// r * (1 + 1e-9) of routing and the instance sampler, and wider ones.
TEST(GridVsOrderedReference, VisitOrderThroughGrowthAndChurn) {
  for (const std::uint64_t seed : {3ULL, 20050610ULL}) {
    util::Rng rng(seed);
    constexpr double kCell = 180.0;
    GridIndex index(kCell);
    OrderedReference ref(kCell);
    std::vector<geom::Vec2> position;

    const auto random_position = [&] {
      geom::Vec2 p{rng.uniform(-1500.0, 1500.0), rng.uniform(-1500.0, 1500.0)};
      switch (rng.uniform_int(0, 4)) {
        case 0:  // on a vertical cell edge
          p.x = std::round(p.x / kCell) * kCell;
          break;
        case 1:  // on a cell corner
          p.x = std::round(p.x / kCell) * kCell;
          p.y = std::round(p.y / kCell) * kCell;
          break;
        case 2:  // on a horizontal cell edge
          p.y = std::round(p.y / kCell) * kCell;
          break;
        default:
          break;
      }
      return p;
    };
    const auto random_center = [&]() -> geom::Vec2 {
      if (rng.uniform_int(0, 2) == 0 && !position.empty()) {
        return position[rng.uniform_int(0, position.size() - 1)];
      }
      return {rng.uniform(-1700.0, 1700.0), rng.uniform(-1700.0, 1700.0)};
    };
    const double radii[] = {kCell, kCell * (1.0 + 1e-9), 0.5 * kCell,
                            2.5 * kCell, 0.0};

    int step = 0;
    while (position.size() < 2500) {
      // Growth in bursts, so the index crosses several size doublings
      // between checks.
      const auto burst = static_cast<std::size_t>(rng.uniform_int(1, 40));
      for (std::size_t k = 0; k < burst; ++k) {
        const auto id = static_cast<GridIndex::Id>(position.size());
        const geom::Vec2 p = random_position();
        index.insert(id, p);
        ref.insert(id, p);
        position.push_back(p);
      }
      for (int k = 0; k < 6; ++k, ++step) {
        const auto id =
            static_cast<GridIndex::Id>(rng.uniform_int(0, position.size() - 1));
        geom::Vec2 p;
        if (rng.uniform_int(0, 1) == 0) {
          // Within the current cell (the origin corner included).
          const geom::Vec2 corner{std::floor(position[id].x / kCell) * kCell,
                                  std::floor(position[id].y / kCell) * kCell};
          p = {corner.x + std::floor(rng.uniform(0.0, 4.0)) * 0.25 * kCell,
               corner.y + rng.uniform(0.0, 0.99) * kCell};
        } else {
          p = random_position();
        }
        index.update(id, p);
        ref.update(id, p);
        position[id] = p;
        const geom::Vec2 center = random_center();
        for (const double r : radii) {
          expect_same_sequence(index, ref, center, r, step);
        }
        const double r = rng.uniform(0.0, 3.0 * kCell);
        expect_same_sequence(index, ref, center, r, step);
        // nearest() still agrees with brute force after each growth step.
        const auto want = brute_nearest(ref.points(), center, r);
        const auto got = index.nearest(center, r);
        ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
        if (got.has_value()) {
          EXPECT_EQ(got->id, want->id) << "step " << step;
          EXPECT_EQ(got->distance_sq, want->distance_sq) << "step " << step;
        }
      }
    }
    EXPECT_EQ(index.size(), position.size());
    // Every lattice point of a window, at the simulator's radii.
    for (int ix = -5; ix <= 5; ++ix) {
      for (int iy = -5; iy <= 5; ++iy) {
        const geom::Vec2 c{ix * kCell, iy * kCell};
        for (const double r : radii) {
          expect_same_sequence(index, ref, c, r, -1);
        }
      }
    }
  }
}

}  // namespace
}  // namespace imobif::net
