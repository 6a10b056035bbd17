#include "viz/dataset/uniform_grid.h"

#include <algorithm>

#include "util/parallel.h"

namespace pviz::vis {

std::pair<double, double> Field::range(util::ExecutionContext& ctx) const {
  if (data_.empty()) return {0.0, 0.0};
  using MinMax = std::pair<double, double>;
  const double* values = data_.data();
  const std::int64_t stride = components_;
  return util::parallelReduce(
      ctx, 0, count(), MinMax{values[0], values[0]},
      [values, stride](MinMax acc, std::int64_t i) {
        const double v = values[i * stride];
        return MinMax{std::min(acc.first, v), std::max(acc.second, v)};
      },
      [](MinMax a, MinMax b) {
        return MinMax{std::min(a.first, b.first), std::max(a.second, b.second)};
      },
      std::int64_t{1} << 15);
}

void UniformGrid::addField(Field field) {
  const Id expect =
      field.association() == Association::Points ? numPoints() : numCells();
  PVIZ_REQUIRE(field.count() == expect,
               "field tuple count does not match grid (" + field.name() + ")");
  fields_.insert_or_assign(field.name(), std::move(field));
}

const Field& UniformGrid::field(const std::string& name) const {
  auto it = fields_.find(name);
  PVIZ_REQUIRE(it != fields_.end(), "no field named '" + name + "'");
  return it->second;
}

Field& UniformGrid::field(const std::string& name) {
  auto it = fields_.find(name);
  PVIZ_REQUIRE(it != fields_.end(), "no field named '" + name + "'");
  return it->second;
}

}  // namespace pviz::vis
