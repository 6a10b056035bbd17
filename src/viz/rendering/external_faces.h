// External face extraction + triangulation.
//
// The paper's ray tracing measurement includes "the time to gather
// triangles and find external faces" and notes those data-intensive
// passes dominate the compute-intensive trace.  Finding external faces
// means scanning every cell and testing each of its six faces for a
// missing neighbor — an O(cells) streaming pass whose output is only
// O(cells^(2/3)) triangles, which is also why the paper sees triangle
// counts grow 4X when cells grow 8X.
#pragma once

#include <string>

#include "viz/dataset/explicit_mesh.h"
#include "viz/dataset/uniform_grid.h"

namespace pviz::util {
class ExecutionContext;
}  // namespace pviz::util

namespace pviz::vis {

struct ExternalFacesResult {
  TriangleMesh mesh;            ///< 2 triangles per external quad face
  std::int64_t cellsScanned = 0;
  std::int64_t facesFound = 0;
};

/// Extract and triangulate the external faces of `grid`, carrying point
/// scalar `fieldName` onto the output vertices.
ExternalFacesResult extractExternalFaces(util::ExecutionContext& ctx,
                                         const UniformGrid& grid,
                                         const std::string& fieldName);

}  // namespace pviz::vis
