#include "viz/io/vtk_writer.h"

#include <fstream>
#include <span>

namespace pviz::vis {

namespace {

void header(std::ostream& os, const std::string& title) {
  os << "# vtk DataFile Version 3.0\n" << title << "\nASCII\n";
}

void writePoints(std::ostream& os, std::span<const Vec3> points) {
  os << "POINTS " << points.size() << " double\n";
  for (const auto& p : points) {
    os << p.x << ' ' << p.y << ' ' << p.z << '\n';
  }
}

void writePointScalars(std::ostream& os, std::span<const double> scalars,
                       const std::string& name) {
  if (scalars.empty()) return;
  os << "POINT_DATA " << scalars.size() << "\nSCALARS " << name
     << " double 1\nLOOKUP_TABLE default\n";
  for (double s : scalars) os << s << '\n';
}

}  // namespace

void writeVtk(const UniformGrid& grid, std::ostream& os,
              const std::string& title) {
  header(os, title);
  os << "DATASET STRUCTURED_POINTS\n";
  const Id3 d = grid.pointDims();
  os << "DIMENSIONS " << d.i << ' ' << d.j << ' ' << d.k << '\n';
  const Vec3 o = grid.origin();
  os << "ORIGIN " << o.x << ' ' << o.y << ' ' << o.z << '\n';
  const Vec3 s = grid.spacing();
  os << "SPACING " << s.x << ' ' << s.y << ' ' << s.z << '\n';

  // Legacy VTK requires all POINT_DATA attributes together, then all
  // CELL_DATA attributes — emit in two passes.
  auto emitField = [&os](const std::string& name, const Field& field) {
    if (field.components() == 1) {
      os << "SCALARS " << name << " double 1\nLOOKUP_TABLE default\n";
      for (Id t = 0; t < field.count(); ++t) os << field.value(t) << '\n';
    } else if (field.components() == 3) {
      os << "VECTORS " << name << " double\n";
      for (Id t = 0; t < field.count(); ++t) {
        const Vec3 v = field.vec3(t);
        os << v.x << ' ' << v.y << ' ' << v.z << '\n';
      }
    } else {
      os << "FIELD " << name << " 1\n"
         << name << ' ' << field.components() << ' ' << field.count()
         << " double\n";
      for (double v : field.data()) os << v << '\n';
    }
  };
  for (Association assoc : {Association::Points, Association::Cells}) {
    bool headerWritten = false;
    for (const auto& [name, field] : grid.fields()) {
      if (field.association() != assoc) continue;
      if (!headerWritten) {
        if (assoc == Association::Points) {
          os << "POINT_DATA " << grid.numPoints() << '\n';
        } else {
          os << "CELL_DATA " << grid.numCells() << '\n';
        }
        headerWritten = true;
      }
      emitField(name, field);
    }
  }
}

void writeVtk(const TriangleMesh& mesh, std::ostream& os,
              const std::string& title) {
  header(os, title);
  os << "DATASET POLYDATA\n";
  writePoints(os, mesh.points);
  const Id n = mesh.numTriangles();
  os << "POLYGONS " << n << ' ' << 4 * n << '\n';
  for (Id t = 0; t < n; ++t) {
    os << "3 " << mesh.connectivity[static_cast<std::size_t>(3 * t)] << ' '
       << mesh.connectivity[static_cast<std::size_t>(3 * t + 1)] << ' '
       << mesh.connectivity[static_cast<std::size_t>(3 * t + 2)] << '\n';
  }
  writePointScalars(os, mesh.pointScalars, "scalar");
}

void writeVtk(const PolylineSet& lines, std::ostream& os,
              const std::string& title) {
  header(os, title);
  os << "DATASET POLYDATA\n";
  writePoints(os, lines.points);
  const Id n = lines.numLines();
  Id entries = 0;
  for (Id l = 0; l < n; ++l) entries += 1 + lines.lineSize(l);
  os << "LINES " << n << ' ' << entries << '\n';
  for (Id l = 0; l < n; ++l) {
    const Id first = lines.offsets[static_cast<std::size_t>(l)];
    const Id count = lines.lineSize(l);
    os << count;
    for (Id k = 0; k < count; ++k) os << ' ' << (first + k);
    os << '\n';
  }
  writePointScalars(os, lines.pointScalars, "integration_time");
}

}  // namespace pviz::vis
