// Axis-aligned integer cell rectangles.
//
// A `Rect` covers the half-open cell range [x, x+width) x [y, y+height).
// Device footprints, storage regions and the chip outline are all Rects.
// The paper's boundary variables b_le / b_ri / b_do / b_up (Fig. 6(a)) map to
// left() / right() / bottom() / top().
#pragma once

#include <algorithm>
#include <compare>
#include <ostream>
#include <vector>

#include "geom/point.hpp"
#include "util/error.hpp"

namespace fsyn {

struct Rect {
  int x = 0;       ///< left-bottom corner column
  int y = 0;       ///< left-bottom corner row
  int width = 0;   ///< number of cell columns
  int height = 0;  ///< number of cell rows

  friend auto operator<=>(const Rect&, const Rect&) = default;

  static Rect from_corners(Point lo, Point hi_exclusive) {
    require(lo.x <= hi_exclusive.x && lo.y <= hi_exclusive.y, "inverted rect corners");
    return Rect{lo.x, lo.y, hi_exclusive.x - lo.x, hi_exclusive.y - lo.y};
  }

  int left() const { return x; }
  int right() const { return x + width; }     ///< exclusive
  int bottom() const { return y; }
  int top() const { return y + height; }      ///< exclusive

  int area() const { return width * height; }
  bool empty() const { return width <= 0 || height <= 0; }

  bool contains(const Point& p) const {
    return p.x >= left() && p.x < right() && p.y >= bottom() && p.y < top();
  }

  bool contains(const Rect& other) const {
    return other.left() >= left() && other.right() <= right() &&
           other.bottom() >= bottom() && other.top() <= top();
  }

  /// True when the two rectangles share at least one cell.
  bool overlaps(const Rect& other) const {
    return left() < other.right() && other.left() < right() &&
           bottom() < other.top() && other.bottom() < top();
  }

  /// The shared cell region (possibly empty).
  Rect intersection(const Rect& other) const {
    const int lo_x = std::max(left(), other.left());
    const int lo_y = std::max(bottom(), other.bottom());
    const int hi_x = std::min(right(), other.right());
    const int hi_y = std::min(top(), other.top());
    if (hi_x <= lo_x || hi_y <= lo_y) return Rect{};
    return Rect{lo_x, lo_y, hi_x - lo_x, hi_y - lo_y};
  }

  /// Minimal Chebyshev gap between two rects; 0 when touching or overlapping.
  /// The routing-convenience constraints (13)-(16) bound this gap by the
  /// minimum device dimension d.
  int chebyshev_gap(const Rect& other) const {
    const int dx = std::max({other.left() - right(), left() - other.right(), 0});
    const int dy = std::max({other.bottom() - top(), bottom() - other.top(), 0});
    return std::max(dx, dy);
  }

  /// Grows the rect by `margin` cells on every side.
  Rect inflated(int margin) const {
    return Rect{x - margin, y - margin, width + 2 * margin, height + 2 * margin};
  }

  /// All cells covered by this rect, row-major from the bottom-left.
  std::vector<Point> cells() const {
    std::vector<Point> out;
    out.reserve(static_cast<std::size_t>(std::max(area(), 0)));
    for (int cy = bottom(); cy < top(); ++cy) {
      for (int cx = left(); cx < right(); ++cx) out.push_back(Point{cx, cy});
    }
    return out;
  }

  /// Calls `fn(Point)` for each cell of the perimeter ring (the circulation
  /// path of a dynamic mixer), in ring_cells() order, without allocating.
  template <typename Fn>
  void for_each_ring_cell(Fn&& fn) const {
    if (empty()) return;
    if (width == 1 || height == 1) {
      for (int cy = bottom(); cy < top(); ++cy) {
        for (int cx = left(); cx < right(); ++cx) fn(Point{cx, cy});
      }
      return;
    }
    // Clockwise walk: bottom row, right column, top row, left column.  The
    // corner cells belong to the horizontal rows, so nothing is duplicated
    // and the count is exactly 2(w+h)-4.
    for (int cx = left(); cx < right(); ++cx) fn(Point{cx, bottom()});
    for (int cy = bottom() + 1; cy < top() - 1; ++cy) fn(Point{right() - 1, cy});
    for (int cx = right() - 1; cx >= left(); --cx) fn(Point{cx, top() - 1});
    for (int cy = top() - 2; cy >= bottom() + 1; --cy) fn(Point{left(), cy});
  }

  /// The perimeter ring of cells (the circulation path of a dynamic mixer).
  /// For a w x h rect this is 2(w+h)-4 cells; for width or height 1 it
  /// degenerates to all cells, row-major.
  std::vector<Point> ring_cells() const {
    std::vector<Point> out;
    for_each_ring_cell([&out](const Point& p) { out.push_back(p); });
    return out;
  }
};

inline std::ostream& operator<<(std::ostream& os, const Rect& r) {
  return os << "[x=" << r.x << ",y=" << r.y << ",w=" << r.width << ",h=" << r.height << ']';
}

}  // namespace fsyn
