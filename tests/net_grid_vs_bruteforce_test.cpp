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
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
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

}  // namespace
}  // namespace imobif::net
