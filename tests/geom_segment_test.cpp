#include "geom/segment.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace imobif::geom {
namespace {

TEST(Segment, Length) {
  const Segment s{{0.0, 0.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(s.length(), 5.0);
}

TEST(Segment, ProjectClampedInterior) {
  const Segment s{{0.0, 0.0}, {10.0, 0.0}};
  EXPECT_DOUBLE_EQ(s.project_clamped({5.0, 3.0}), 0.5);
  EXPECT_DOUBLE_EQ(s.project_clamped({2.5, -1.0}), 0.25);
}

TEST(Segment, ProjectClampedEnds) {
  const Segment s{{0.0, 0.0}, {10.0, 0.0}};
  EXPECT_DOUBLE_EQ(s.project_clamped({-5.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(s.project_clamped({15.0, 1.0}), 1.0);
}

TEST(Segment, DegenerateSegment) {
  const Segment s{{2.0, 2.0}, {2.0, 2.0}};
  EXPECT_DOUBLE_EQ(s.project_clamped({7.0, 2.0}), 0.0);
  EXPECT_DOUBLE_EQ(s.distance_to({7.0, 2.0}), 5.0);
}

TEST(Segment, DistanceTo) {
  const Segment s{{0.0, 0.0}, {10.0, 0.0}};
  EXPECT_DOUBLE_EQ(s.distance_to({5.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(s.distance_to({-3.0, 4.0}), 5.0);  // beyond endpoint a
  EXPECT_DOUBLE_EQ(s.distance_to({13.0, 4.0}), 5.0);  // beyond endpoint b
  EXPECT_DOUBLE_EQ(s.distance_to({4.0, 0.0}), 0.0);   // on the segment
}

TEST(StepTowards, ReachesCloseTarget) {
  const Vec2 from{0.0, 0.0};
  const Vec2 to{1.0, 1.0};
  EXPECT_EQ(step_towards(from, to, 10.0), to);
}

TEST(StepTowards, TruncatesToMaxStep) {
  const Vec2 from{0.0, 0.0};
  const Vec2 to{10.0, 0.0};
  const Vec2 stepped = step_towards(from, to, 4.0);
  EXPECT_NEAR(stepped.x, 4.0, 1e-12);
  EXPECT_NEAR(stepped.y, 0.0, 1e-12);
}

TEST(StepTowards, ZeroOrNegativeStepStays) {
  const Vec2 from{1.0, 2.0};
  EXPECT_EQ(step_towards(from, {9.0, 9.0}, 0.0), from);
  EXPECT_EQ(step_towards(from, {9.0, 9.0}, -1.0), from);
}

TEST(StepTowards, AtTargetStays) {
  const Vec2 p{3.0, 3.0};
  EXPECT_EQ(step_towards(p, p, 5.0), p);
}

TEST(PolylineLength, SumsSegments) {
  const std::vector<Vec2> pts{{0, 0}, {3, 4}, {3, 8}};
  EXPECT_DOUBLE_EQ(polyline_length(pts.data(), pts.size()), 9.0);
  EXPECT_DOUBLE_EQ(polyline_length(pts.data(), 1), 0.0);
  EXPECT_DOUBLE_EQ(polyline_length(nullptr, 0), 0.0);
}

TEST(Tortuosity, StraightPathIsOne) {
  const std::vector<Vec2> pts{{0, 0}, {5, 0}, {10, 0}};
  EXPECT_DOUBLE_EQ(tortuosity(pts.data(), pts.size()), 1.0);
}

TEST(Tortuosity, BentPathExceedsOne) {
  const std::vector<Vec2> pts{{0, 0}, {5, 5}, {10, 0}};
  EXPECT_NEAR(tortuosity(pts.data(), pts.size()),
              2.0 * std::sqrt(50.0) / 10.0, 1e-12);
}

TEST(Tortuosity, DegenerateCasesReportOne) {
  const std::vector<Vec2> loop{{0, 0}, {5, 5}, {0, 0}};
  EXPECT_DOUBLE_EQ(tortuosity(loop.data(), loop.size()), 1.0);
  EXPECT_DOUBLE_EQ(tortuosity(loop.data(), 1), 1.0);
}

// Property: tortuosity is always >= 1 (triangle inequality).
TEST(TortuosityProperty, AtLeastOne) {
  util::Rng rng(21);
  for (int i = 0; i < 500; ++i) {
    std::vector<Vec2> pts;
    const auto n = 2 + rng.uniform_int(0, 6);
    for (std::uint64_t j = 0; j < n; ++j) {
      pts.push_back({rng.uniform(-100, 100), rng.uniform(-100, 100)});
    }
    EXPECT_GE(tortuosity(pts.data(), pts.size()), 1.0 - 1e-12);
  }
}

// Property: stepping never overshoots and strictly reduces the remaining
// distance (by exactly max_step when the target is farther than that).
TEST(StepTowardsProperty, MonotoneApproach) {
  util::Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const Vec2 from{rng.uniform(-100, 100), rng.uniform(-100, 100)};
    const Vec2 to{rng.uniform(-100, 100), rng.uniform(-100, 100)};
    const double step = rng.uniform(0.1, 50.0);
    const Vec2 next = step_towards(from, to, step);
    const double before = distance(from, to);
    const double after = distance(next, to);
    EXPECT_LE(after, before + 1e-9);
    if (before > step) {
      EXPECT_NEAR(before - after, step, 1e-9);
    } else {
      EXPECT_NEAR(after, 0.0, 1e-9);
    }
  }
}

// Property: the closest point on the segment is never farther than either
// endpoint.
TEST(SegmentProperty, ClosestPointOptimal) {
  util::Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const Segment s{{rng.uniform(-50, 50), rng.uniform(-50, 50)},
                    {rng.uniform(-50, 50), rng.uniform(-50, 50)}};
    const Vec2 p{rng.uniform(-50, 50), rng.uniform(-50, 50)};
    const double d = s.distance_to(p);
    EXPECT_LE(d, distance(p, s.a) + 1e-9);
    EXPECT_LE(d, distance(p, s.b) + 1e-9);
    // And no sampled interior point beats it.
    for (double t = 0.0; t <= 1.0; t += 0.1) {
      EXPECT_LE(d, distance(p, lerp(s.a, s.b, t)) + 1e-9);
    }
  }
}

}  // namespace
}  // namespace imobif::geom
