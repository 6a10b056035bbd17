// Named data arrays attached to a mesh, VTK-style.
//
// A Field is an association (points or cells), a component count (1 for
// scalars, 3 for vectors), and a flat double array in SoA-of-tuples
// layout: component index varies fastest.
#pragma once

#include <string>

#include "util/buffer.h"
#include "util/error.h"
#include "viz/types.h"

namespace pviz::vis {

enum class Association { Points, Cells };

class Field {
 public:
  Field() = default;
  Field(std::string name, Association assoc, int components,
        util::Buffer<double> data)
      : name_(std::move(name)),
        assoc_(assoc),
        components_(components),
        data_(std::move(data)) {
    PVIZ_REQUIRE(components_ >= 1, "field needs at least one component");
    PVIZ_REQUIRE(data_.size() % static_cast<std::size_t>(components_) == 0,
                 "field data size must be a multiple of component count");
  }

  /// A scalar/vector field of `count` tuples whose values are left
  /// unwritten: the caller's fill must write every value.
  static Field forOverwrite(std::string name, Association assoc,
                            int components, Id count) {
    return Field(std::move(name), assoc, components,
                 util::Buffer<double>(static_cast<std::size_t>(count) *
                                      static_cast<std::size_t>(components)));
  }

  /// A scalar/vector field of `count` tuples, every value zero.
  static Field zeros(std::string name, Association assoc, int components,
                     Id count) {
    return Field(std::move(name), assoc, components,
                 util::Buffer<double>(static_cast<std::size_t>(count) *
                                          static_cast<std::size_t>(components),
                                      0.0));
  }

  const std::string& name() const { return name_; }
  Association association() const { return assoc_; }
  int components() const { return components_; }
  Id count() const {
    return static_cast<Id>(data_.size()) / components_;
  }

  double value(Id tuple, int component = 0) const {
    return data_[static_cast<std::size_t>(tuple) * components_ + component];
  }
  void setValue(Id tuple, int component, double v) {
    data_[static_cast<std::size_t>(tuple) * components_ + component] = v;
  }
  void setScalar(Id tuple, double v) { setValue(tuple, 0, v); }

  Vec3 vec3(Id tuple) const {
    PVIZ_ASSERT(components_ == 3);
    const std::size_t base = static_cast<std::size_t>(tuple) * 3;
    return {data_[base], data_[base + 1], data_[base + 2]};
  }
  void setVec3(Id tuple, const Vec3& v) {
    PVIZ_ASSERT(components_ == 3);
    const std::size_t base = static_cast<std::size_t>(tuple) * 3;
    data_[base] = v.x;
    data_[base + 1] = v.y;
    data_[base + 2] = v.z;
  }

  const util::Buffer<double>& data() const { return data_; }
  util::Buffer<double>& data() { return data_; }

  /// [min, max] over the first component; {0,0} for empty fields.
  std::pair<double, double> range() const;

  /// Bytes held by the data array (used by the traffic model).
  double sizeBytes() const {
    return static_cast<double>(data_.size() * sizeof(double));
  }

 private:
  std::string name_;
  Association assoc_ = Association::Points;
  int components_ = 1;
  util::Buffer<double> data_;
};

}  // namespace pviz::vis
