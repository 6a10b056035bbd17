#include "viz/rendering/color_table.h"

namespace pviz::vis {

ColorTable::ColorTable(std::vector<ControlPoint> points)
    : points_(std::move(points)) {
  PVIZ_REQUIRE(points_.size() >= 2, "color table needs >= 2 control points");
  for (std::size_t i = 1; i < points_.size(); ++i) {
    PVIZ_REQUIRE(points_[i - 1].position <= points_[i].position,
                 "color table control points must be ordered");
  }
}

ColorTable ColorTable::coolToWarm() {
  return ColorTable({{0.0, {0.23, 0.30, 0.75, 1.0}},
                     {0.5, {0.87, 0.87, 0.87, 1.0}},
                     {1.0, {0.70, 0.02, 0.15, 1.0}}});
}

ColorTable ColorTable::rainbowVolume() {
  return ColorTable({{0.00, {0.00, 0.00, 0.60, 0.00}},
                     {0.25, {0.00, 0.60, 0.85, 0.05}},
                     {0.50, {0.10, 0.75, 0.25, 0.15}},
                     {0.75, {0.95, 0.80, 0.10, 0.40}},
                     {1.00, {0.85, 0.08, 0.05, 0.85}}});
}

}  // namespace pviz::vis
