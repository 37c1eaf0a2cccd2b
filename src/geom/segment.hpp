// Line-segment primitives: projection, distance to segment, clamped motion.
//
// These support the paper's optimality statements (all relays of a one-to-one
// flow end up *on the source-destination segment*) and the bounded-step mover
// (a node moves at most max_step meters toward its target per packet).
#pragma once

#include "geom/vec2.hpp"

namespace imobif::geom {

struct Segment {
  Vec2 a;
  Vec2 b;

  double length() const { return distance(a, b); }

  /// Parameter t in [0,1] of the point on the segment closest to p.
  double project_clamped(Vec2 p) const;

  /// Point on the segment closest to p.
  Vec2 closest_point(Vec2 p) const { return lerp(a, b, project_clamped(p)); }

  /// Distance from p to the segment.
  double distance_to(Vec2 p) const { return distance(p, closest_point(p)); }
};

/// Move from `from` toward `to`, traveling at most `max_step` meters.
/// Returns `to` itself when it is within reach.
Vec2 step_towards(Vec2 from, Vec2 to, double max_step);

/// Total length of the polyline through the given points (0 for fewer
/// than two points).
double polyline_length(const Vec2* points, std::size_t count);

/// Tortuosity of a path: polyline length / straight endpoint distance
/// (>= 1; exactly 1 for a straight path). Degenerate paths (coincident
/// endpoints or < 2 points) report 1. The min-energy strategy drives a
/// flow path's tortuosity toward 1 — the Fig-5 benches print it.
double tortuosity(const Vec2* points, std::size_t count);

}  // namespace imobif::geom
