#include "net/grid_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "util/rng.hpp"

namespace imobif::net {
namespace {

TEST(GridIndex, RejectsBadCellSize) {
  EXPECT_THROW(GridIndex(0.0), std::invalid_argument);
  EXPECT_THROW(GridIndex(-1.0), std::invalid_argument);
}

TEST(GridIndex, InsertAndQuery) {
  GridIndex index(100.0);
  index.insert(1, {10.0, 10.0});
  index.insert(2, {50.0, 10.0});
  index.insert(3, {500.0, 500.0});
  const auto hits = index.query({0.0, 0.0}, 80.0);
  const std::set<GridIndex::Id> ids(hits.begin(), hits.end());
  EXPECT_EQ(ids, (std::set<GridIndex::Id>{1, 2}));
}

TEST(GridIndex, DuplicateInsertThrows) {
  GridIndex index(100.0);
  index.insert(1, {0.0, 0.0});
  EXPECT_THROW(index.insert(1, {1.0, 1.0}), std::invalid_argument);
}

TEST(GridIndex, RadiusIsInclusive) {
  GridIndex index(100.0);
  index.insert(1, {100.0, 0.0});
  EXPECT_EQ(index.query({0.0, 0.0}, 100.0).size(), 1u);
  EXPECT_EQ(index.query({0.0, 0.0}, 99.999).size(), 0u);
}

TEST(GridIndex, UpdateMovesAcrossCells) {
  GridIndex index(100.0);
  index.insert(7, {10.0, 10.0});
  index.update(7, {950.0, 950.0});
  EXPECT_TRUE(index.query({0.0, 0.0}, 50.0).empty());
  const auto hits = index.query({940.0, 940.0}, 50.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 7u);
}

TEST(GridIndex, UpdateWithinCellKeepsEntry) {
  GridIndex index(100.0);
  index.insert(7, {10.0, 10.0});
  index.update(7, {20.0, 15.0});
  const auto hits = index.query({20.0, 15.0}, 1.0);
  ASSERT_EQ(hits.size(), 1u);
}

TEST(GridIndex, UpdateUnknownThrows) {
  GridIndex index(100.0);
  EXPECT_THROW(index.update(5, {0.0, 0.0}), std::out_of_range);
}

TEST(GridIndex, NegativeCoordinatesWork) {
  GridIndex index(100.0);
  index.insert(1, {-350.0, -220.0});
  const auto hits = index.query({-340.0, -210.0}, 20.0);
  ASSERT_EQ(hits.size(), 1u);
}

TEST(GridIndex, LargerRadiusThanCellWidens) {
  GridIndex index(50.0);
  index.insert(1, {180.0, 0.0});
  const auto hits = index.query({0.0, 0.0}, 200.0);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(GridIndexNearest, EmptyGridReturnsNullopt) {
  GridIndex index(100.0);
  EXPECT_FALSE(index.nearest({0.0, 0.0}, 1000.0).has_value());
  // Zero radius on an empty grid must not scan anything either.
  EXPECT_FALSE(index.nearest({0.0, 0.0}, 0.0).has_value());
}

TEST(GridIndexNearest, SingleOccupiedCellAtQueryOrigin) {
  GridIndex index(100.0);
  index.insert(9, {10.0, 20.0});
  const auto hit = index.nearest({10.0, 20.0}, 100.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id, 9u);
  EXPECT_EQ(hit->distance_sq, 0.0);
  EXPECT_EQ(hit->position.x, 10.0);
  EXPECT_EQ(hit->position.y, 20.0);
}

TEST(GridIndexNearest, HitExactlyOnRingExpansionOuterBoundary) {
  // The only node sits at distance == max_radius, two full cell rings
  // out: the search must expand past the empty inner rings and the
  // inclusive radius must keep the boundary hit.
  GridIndex index(100.0);
  index.insert(4, {200.0, 0.0});
  const auto hit = index.nearest({0.0, 0.0}, 200.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id, 4u);
  EXPECT_EQ(hit->distance_sq, 200.0 * 200.0);
  // Just inside the boundary the same node is out of range.
  EXPECT_FALSE(index.nearest({0.0, 0.0}, 199.999).has_value());
}

TEST(GridIndexNearest, CloserNodeInOuterRingBeatsRingZeroHit) {
  // The ring-floor early exit must not stop before a geometrically
  // closer node one ring further out: a corner hit in the center cell is
  // ~141 away, the ring-1 node only ~100.
  GridIndex index(100.0);
  index.insert(1, {99.0, 99.0});    // center cell, far corner
  index.insert(2, {100.5, 0.0});    // ring 1, much closer
  const auto hit = index.nearest({0.0, 0.0}, 500.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id, 2u);
}

TEST(GridIndexNearest, EqualDistanceBreaksToLowestId) {
  GridIndex index(100.0);
  index.insert(8, {50.0, 0.0});
  index.insert(3, {-50.0, 0.0});
  const auto hit = index.nearest({0.0, 0.0}, 100.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id, 3u);
}

TEST(GridIndexNearest, InfiniteRadiusFindsTheClosest) {
  // An unbounded search: the ring count is clamped to the key range
  // instead of converting an infinite quotient to an integer.
  GridIndex index(100.0);
  index.insert(1, {250.0, 0.0});
  index.insert(2, {-90.0, 40.0});
  const auto hit =
      index.nearest({0.0, 0.0}, std::numeric_limits<double>::infinity());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id, 2u);
  EXPECT_EQ(hit->distance_sq, 90.0 * 90.0 + 40.0 * 40.0);
}

TEST(GridIndexNearest, NanRadiusThrows) {
  GridIndex index(100.0);
  index.insert(1, {0.0, 0.0});
  EXPECT_THROW(
      index.nearest({0.0, 0.0}, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

TEST(GridIndex, NegativeOrNanRadiusMatchesNothing) {
  GridIndex index(100.0);
  index.insert(1, {50.0, 50.0});
  EXPECT_TRUE(index.query({50.0, 50.0}, -10.0).empty());
  EXPECT_TRUE(
      index.query({50.0, 50.0}, std::numeric_limits<double>::quiet_NaN())
          .empty());
}

TEST(GridIndex, SparseIdsAreTrackedIndividually) {
  GridIndex index(100.0);
  index.insert(40, {10.0, 10.0});
  EXPECT_TRUE(index.contains(40));
  EXPECT_FALSE(index.contains(39));
  EXPECT_FALSE(index.contains(41));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_THROW(index.update(39, {0.0, 0.0}), std::out_of_range);
  index.insert(39, {20.0, 10.0});
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.query({15.0, 10.0}, 10.0),
            (std::vector<GridIndex::Id>{40, 39}));
}

// Property: query() agrees with brute force over random insert / move /
// query workloads.
TEST(GridIndexProperty, MatchesBruteForce) {
  util::Rng rng(99);
  GridIndex index(180.0);
  std::unordered_map<GridIndex::Id, geom::Vec2> truth;

  for (GridIndex::Id id = 0; id < 200; ++id) {
    const geom::Vec2 p{rng.uniform(-1000, 1000), rng.uniform(-1000, 1000)};
    index.insert(id, p);
    truth[id] = p;
  }
  for (int step = 0; step < 500; ++step) {
    const auto op = rng.uniform_int(0, 2);
    const auto id = static_cast<GridIndex::Id>(rng.uniform_int(0, 199));
    if (op == 0 && truth.count(id)) {
      const geom::Vec2 p{rng.uniform(-1000, 1000), rng.uniform(-1000, 1000)};
      index.update(id, p);
      truth[id] = p;
    } else {
      const geom::Vec2 center{rng.uniform(-1000, 1000),
                              rng.uniform(-1000, 1000)};
      const double radius = rng.uniform(10.0, 400.0);
      auto hits = index.query(center, radius);
      std::sort(hits.begin(), hits.end());
      std::vector<GridIndex::Id> expected;
      for (const auto& [tid, pos] : truth) {
        if (geom::distance(pos, center) <= radius) expected.push_back(tid);
      }
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(hits, expected) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace imobif::net
