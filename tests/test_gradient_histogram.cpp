// Gradient, vector magnitude, and histogram filter tests.
#include <gtest/gtest.h>

#include <cmath>

#include "util/exec_context.h"
#include "viz/filters/gradient.h"
#include "viz/filters/histogram.h"

namespace pviz::vis {
namespace {

UniformGrid linearField(Id cells, double a, double b, double c, double d) {
  UniformGrid g = UniformGrid::cube(cells);
  Field f = Field::zeros("f", Association::Points, 1, g.numPoints());
  for (Id p = 0; p < g.numPoints(); ++p) {
    const Vec3 pos = g.pointPosition(p);
    f.setScalar(p, a * pos.x + b * pos.y + c * pos.z + d);
  }
  g.addField(std::move(f));
  return g;
}

TEST(Gradient, ExactOnLinearFields) {
  util::ExecutionContext ctx;
  const UniformGrid g = linearField(8, 3.0, -2.0, 0.5, 7.0);
  GradientFilter filter;
  const auto result = filter.run(ctx, g, "f");
  ASSERT_EQ(result.gradient.count(), g.numPoints());
  ASSERT_EQ(result.gradient.components(), 3);
  // Central AND one-sided differences are exact on linear fields.
  for (Id p = 0; p < g.numPoints(); ++p) {
    const Vec3 grad = result.gradient.vec3(p);
    ASSERT_NEAR(grad.x, 3.0, 1e-10);
    ASSERT_NEAR(grad.y, -2.0, 1e-10);
    ASSERT_NEAR(grad.z, 0.5, 1e-10);
  }
  EXPECT_EQ(result.gradient.name(), "f-gradient");
}

TEST(Gradient, SecondOrderInTheInterior) {
  util::ExecutionContext ctx;
  // On f = sin(2πx), central differences converge at O(h²).
  auto interiorError = [&ctx](Id cells) {
    UniformGrid g = UniformGrid::cube(cells);
    Field f = Field::zeros("s", Association::Points, 1, g.numPoints());
    for (Id p = 0; p < g.numPoints(); ++p) {
      f.setScalar(p, std::sin(2 * 3.14159265358979 * g.pointPosition(p).x));
    }
    g.addField(std::move(f));
    GradientFilter filter;
    const auto result = filter.run(ctx, g, "s");
    double maxErr = 0.0;
    for (Id p = 0; p < g.numPoints(); ++p) {
      const Id3 ijk = g.pointIjk(p);
      if (ijk.i == 0 || ijk.i == g.pointDims().i - 1) continue;
      const double expected =
          2 * 3.14159265358979 *
          std::cos(2 * 3.14159265358979 * g.pointPosition(p).x);
      maxErr = std::max(maxErr,
                        std::abs(result.gradient.vec3(p).x - expected));
    }
    return maxErr;
  };
  const double coarse = interiorError(10);
  const double fine = interiorError(20);
  EXPECT_GT(coarse / fine, 3.0);  // ~4X for a second-order scheme
}

TEST(Gradient, RejectsWrongFieldKinds) {
  util::ExecutionContext ctx;
  UniformGrid g = UniformGrid::cube(3);
  g.addField(Field::zeros("v", Association::Points, 3, g.numPoints()));
  g.addField(Field::zeros("c", Association::Cells, 1, g.numCells()));
  GradientFilter filter;
  EXPECT_THROW(filter.run(ctx, g, "v"), Error);
  EXPECT_THROW(filter.run(ctx, g, "c"), Error);
}

TEST(Gradient, ProfileIsStreaming) {
  util::ExecutionContext ctx;
  const UniformGrid g = linearField(8, 1, 1, 1, 0);
  GradientFilter filter;
  const auto result = filter.run(ctx, g, "f");
  ASSERT_EQ(result.profile.phases.size(), 1u);
  EXPECT_GT(result.profile.phases[0].bytesStreamed, 0.0);
  EXPECT_LT(result.profile.phases[0].flops /
                result.profile.phases[0].instructions(),
            0.4);  // data-movement dominated
}

TEST(VectorMagnitude, ComputesLengths) {
  util::ExecutionContext ctx;
  Field v = Field::zeros("v", Association::Points, 3, 3);
  v.setVec3(0, {3, 4, 0});
  v.setVec3(1, {0, 0, 0});
  v.setVec3(2, {1, 2, 2});
  const Field mag = vectorMagnitude(ctx, v, "speed");
  EXPECT_EQ(mag.name(), "speed");
  EXPECT_EQ(mag.components(), 1);
  EXPECT_DOUBLE_EQ(mag.value(0), 5.0);
  EXPECT_DOUBLE_EQ(mag.value(1), 0.0);
  EXPECT_DOUBLE_EQ(mag.value(2), 3.0);
  Field scalar("s", Association::Points, 1, {1.0});
  EXPECT_THROW(vectorMagnitude(ctx, scalar, "x"), Error);
}

TEST(Histogram, UniformRampFillsBinsEvenly) {
  util::ExecutionContext ctx;
  util::Buffer<double> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>(i);
  }
  Field f("f", Association::Points, 1, std::move(data));
  HistogramFilter filter;
  filter.setBinCount(10);
  const auto result = filter.run(ctx, f);
  const Histogram& h = result.histogram;
  EXPECT_EQ(h.totalCount(), 1000);
  ASSERT_EQ(h.bins.size(), 10u);
  for (std::size_t b = 0; b + 1 < h.bins.size(); ++b) {
    ASSERT_EQ(h.bins[b], 100) << "bin " << b;
  }
  EXPECT_EQ(h.bins.back(), 100);
  EXPECT_DOUBLE_EQ(h.lo, 0.0);
  EXPECT_DOUBLE_EQ(h.hi, 999.0);
}

TEST(Histogram, QuantilesOfAUniformRamp) {
  util::ExecutionContext ctx;
  util::Buffer<double> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>(i) / 9999.0;
  }
  Field f("f", Association::Points, 1, std::move(data));
  HistogramFilter filter;
  filter.setBinCount(100);
  const Histogram h = filter.run(ctx, f).histogram;
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.1), 0.1, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.lo);
  EXPECT_THROW(h.quantile(1.5), Error);
}

TEST(Histogram, ConstantFieldLandsInOneBin) {
  util::ExecutionContext ctx;
  Field f("f", Association::Cells, 1, util::Buffer<double>(64, 3.0));
  HistogramFilter filter;
  filter.setBinCount(8);
  const Histogram h = filter.run(ctx, f).histogram;
  EXPECT_EQ(h.totalCount(), 64);
  EXPECT_EQ(h.bins[0], 64);  // degenerate range collapses to bin 0
}

TEST(Histogram, VectorFieldUsesFirstComponent) {
  util::ExecutionContext ctx;
  Field v("v", Association::Points, 3,
          {1.0, 100.0, 100.0, 2.0, 100.0, 100.0});
  HistogramFilter filter;
  filter.setBinCount(2);
  const Histogram h = filter.run(ctx, v).histogram;
  EXPECT_EQ(h.totalCount(), 2);
  EXPECT_DOUBLE_EQ(h.lo, 1.0);
  EXPECT_DOUBLE_EQ(h.hi, 2.0);
  EXPECT_THROW(filter.setBinCount(0), Error);
}

}  // namespace
}  // namespace pviz::vis
