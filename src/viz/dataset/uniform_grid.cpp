#include "viz/dataset/uniform_grid.h"

#include <algorithm>

namespace pviz::vis {

std::pair<double, double> Field::range() const {
  if (data_.empty()) return {0.0, 0.0};
  double lo = data_[0];
  double hi = data_[0];
  const std::size_t stride = static_cast<std::size_t>(components_);
  for (std::size_t i = 0; i < data_.size(); i += stride) {
    lo = std::min(lo, data_[i]);
    hi = std::max(hi, data_[i]);
  }
  return {lo, hi};
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
