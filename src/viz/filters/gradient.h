// Gradient filter — central-difference gradient of a point scalar
// field, plus derived vector-magnitude and surface-normal utilities.
//
// Not one of the study's eight algorithms, but a staple of the VTK
// filter set the paper's future-work section asks to classify; its
// profile is a pure stencil sweep (streaming, low FP density), which
// the power advisor classifies as a power opportunity.
#pragma once

#include <string>

#include "viz/dataset/uniform_grid.h"
#include "viz/worklet/work_profile.h"

namespace pviz::util {
class ExecutionContext;
}  // namespace pviz::util

namespace pviz::vis {

class GradientFilter {
 public:
  struct Result {
    Field gradient;  ///< 3-component point field "<name>-gradient"
    KernelProfile profile;
  };

  /// Central differences in the interior, one-sided at the boundary.
  Result run(util::ExecutionContext& ctx, const UniformGrid& grid,
             const std::string& fieldName) const;

};

/// Per-point magnitude of a 3-component point field.
Field vectorMagnitude(util::ExecutionContext& ctx, const Field& vectors,
                      const std::string& outputName);

}  // namespace pviz::vis
