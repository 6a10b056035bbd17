// Scalar-to-color transfer functions (the "cool to warm" default plus a
// rainbow-ish table for volume rendering with per-entry opacity).
#pragma once

#include <algorithm>
#include <vector>

#include "util/error.h"
#include "viz/rendering/image.h"

namespace pviz::vis {

class ColorTable {
 public:
  struct ControlPoint {
    double position;  ///< normalized scalar in [0, 1]
    Color color;      ///< color + opacity at this position
  };

  /// Piecewise-linear table from ordered control points.
  explicit ColorTable(std::vector<ControlPoint> points);

  /// Diverging blue-white-red (surface coloring default).
  static ColorTable coolToWarm();
  /// Blue-cyan-green-yellow-red with ramped opacity (volume rendering).
  static ColorTable rainbowVolume();

  /// Map normalized scalar [0, 1] (clamped) to a color.  Defined here
  /// so the ray-cast kernels inline it into their per-sample loops.
  Color sample(double t) const {
    t = std::clamp(t, 0.0, 1.0);
    if (t <= points_.front().position) return points_.front().color;
    if (t >= points_.back().position) return points_.back().color;
    for (std::size_t i = 1; i < points_.size(); ++i) {
      if (t <= points_[i].position) {
        const double span = points_[i].position - points_[i - 1].position;
        const double frac =
            span > 0.0 ? (t - points_[i - 1].position) / span : 0.0;
        return lerp(points_[i - 1].color, points_[i].color, frac);
      }
    }
    return points_.back().color;
  }

  /// Map a raw scalar given the field range.
  Color sampleRange(double value, double lo, double hi) const {
    const double span = hi - lo;
    return sample(span > 0.0 ? (value - lo) / span : 0.5);
  }

 private:
  std::vector<ControlPoint> points_;
};

}  // namespace pviz::vis
