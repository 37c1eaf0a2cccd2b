#include "geom/segment.hpp"

#include <algorithm>

namespace imobif::geom {

double Segment::project_clamped(Vec2 p) const {
  const Vec2 d = b - a;
  const double len_sq = d.norm_sq();
  // Exact zero only for a truly degenerate (a == b) segment.
  if (len_sq == 0.0) return 0.0;  // lint:allow(float-equality)
  const double t = (p - a).dot(d) / len_sq;
  return std::clamp(t, 0.0, 1.0);
}

Vec2 step_towards(Vec2 from, Vec2 to, double max_step) {
  if (max_step <= 0.0) return from;
  const double d = distance(from, to);
  if (d <= max_step) return to;
  return from + (to - from) * (max_step / d);
}

double polyline_length(const Vec2* points, std::size_t count) {
  double length = 0.0;
  for (std::size_t i = 0; i + 1 < count; ++i) {
    length += distance(points[i], points[i + 1]);
  }
  return length;
}

double tortuosity(const Vec2* points, std::size_t count) {
  if (count < 2) return 1.0;
  const double direct = distance(points[0], points[count - 1]);
  if (direct <= 0.0) return 1.0;
  return polyline_length(points, count) / direct;
}

}  // namespace imobif::geom
