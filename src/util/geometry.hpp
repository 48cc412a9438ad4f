// Planar geometry primitives used by placement, routing, and the attacks.
// Coordinates are in microns (double) for physical positions and in gcell
// units (int) for the routing grid.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>

namespace sm::util {

struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point& a, const Point& b) noexcept {
    return a.x == b.x && a.y == b.y;
  }
  friend Point operator+(const Point& a, const Point& b) noexcept {
    return {a.x + b.x, a.y + b.y};
  }
  friend Point operator-(const Point& a, const Point& b) noexcept {
    return {a.x - b.x, a.y - b.y};
  }
  friend std::ostream& operator<<(std::ostream& os, const Point& p) {
    return os << '(' << p.x << ", " << p.y << ')';
  }
};

inline double manhattan(const Point& a, const Point& b) noexcept {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

inline double euclidean(const Point& a, const Point& b) noexcept {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// Axis-aligned rectangle; lo is the lower-left corner, hi the upper-right.
struct Rect {
  Point lo;
  Point hi;

  double width() const noexcept { return hi.x - lo.x; }
  double height() const noexcept { return hi.y - lo.y; }
  double area() const noexcept { return width() * height(); }
  Point center() const noexcept {
    return {(lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0};
  }
  bool contains(const Point& p) const noexcept {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }
  bool overlaps(const Rect& o) const noexcept {
    return lo.x < o.hi.x && o.lo.x < hi.x && lo.y < o.hi.y && o.lo.y < hi.y;
  }
  /// Grow the rectangle by `d` on every side.
  Rect inflated(double d) const noexcept {
    return {{lo.x - d, lo.y - d}, {hi.x + d, hi.y + d}};
  }
  /// Smallest rectangle covering this one and `p`.
  void expand(const Point& p) noexcept {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }
  /// Half-perimeter (the HPWL contribution of a net whose bbox this is).
  double half_perimeter() const noexcept { return width() + height(); }

  static Rect around(const Point& p) noexcept { return {p, p}; }
};

/// Integer grid coordinate (gcell column/row + metal layer, 1-based layer).
struct GridPoint {
  std::int32_t x = 0;
  std::int32_t y = 0;
  std::int32_t layer = 1;

  friend bool operator==(const GridPoint& a, const GridPoint& b) noexcept {
    return a.x == b.x && a.y == b.y && a.layer == b.layer;
  }
  friend std::ostream& operator<<(std::ostream& os, const GridPoint& g) {
    return os << '(' << g.x << ',' << g.y << ",M" << g.layer << ')';
  }
};

inline int manhattan(const GridPoint& a, const GridPoint& b) noexcept {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

/// Inclusive integer rectangle in gcell units: the cells [x0, x1] × [y0, y1].
/// The router clips each net's A* search to one of these windows. A
/// default-constructed rect is empty (x1 < x0).
struct GridRect {
  std::int32_t x0 = 0;
  std::int32_t y0 = 0;
  std::int32_t x1 = -1;
  std::int32_t y1 = -1;

  bool empty() const noexcept { return x1 < x0 || y1 < y0; }
  bool contains(std::int32_t x, std::int32_t y) const noexcept {
    return x >= x0 && x <= x1 && y >= y0 && y <= y1;
  }

  /// Smallest rectangle covering this one and the cell (x, y).
  void expand(std::int32_t x, std::int32_t y) noexcept {
    if (empty()) {
      x0 = x1 = x;
      y0 = y1 = y;
      return;
    }
    x0 = std::min(x0, x);
    x1 = std::max(x1, x);
    y0 = std::min(y0, y);
    y1 = std::max(y1, y);
  }
  /// Grow by `d` cells on every side (no clamping; pair with clamped()).
  GridRect inflated(std::int32_t d) const noexcept {
    return {x0 - d, y0 - d, x1 + d, y1 + d};
  }
  /// Intersection with `bounds`; empty when they do not overlap.
  GridRect clamped(const GridRect& bounds) const noexcept {
    return {std::max(x0, bounds.x0), std::max(y0, bounds.y0),
            std::min(x1, bounds.x1), std::min(y1, bounds.y1)};
  }

  static GridRect around(std::int32_t x, std::int32_t y) noexcept {
    return {x, y, x, y};
  }
};

}  // namespace sm::util
