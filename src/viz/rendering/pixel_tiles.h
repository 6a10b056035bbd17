// Image-space dispatch shared by the two ray-cast kernels (volume
// rendering and ray tracing).
//
// A width x height image is cut into square tiles of kTileEdge pixels,
// numbered row-major over tiles and partial on the right and bottom
// edges; the context's backend hands them out kTilesPerChunk at a time.
// A square tile keeps a chunk's rays inside a narrow cone, so the field
// cells or BVH nodes they touch stay in cache.  Every pixel is visited
// exactly once, and the kernels only write their own pixel and add
// integer counters, so the tile order changes no output bit.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/parallel.h"

namespace pviz::vis {

/// Tile edge in pixels and tiles per dispatched chunk, measured on the
/// study's 512 x 512 images.
inline constexpr int kTileEdge = 16;
inline constexpr std::int64_t kTilesPerChunk = 4;

/// The pixels [x0, x1) x [y0, y1) of one tile.
struct PixelTile {
  int x0, y0, x1, y1;
};

/// Run `f(tile)` once for every tile of a width x height image, through
/// the context's backend (cancellation is polled at chunk edges).
template <typename TileFunc>
void forEachPixelTile(util::ExecutionContext& ctx, int width, int height,
                      TileFunc&& f) {
  const std::int64_t tilesX = (width + kTileEdge - 1) / kTileEdge;
  const std::int64_t tilesY = (height + kTileEdge - 1) / kTileEdge;
  util::parallelForChunks(
      ctx, 0, tilesX * tilesY,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t tile = begin; tile < end; ++tile) {
          const int x0 = static_cast<int>(tile % tilesX) * kTileEdge;
          const int y0 = static_cast<int>(tile / tilesX) * kTileEdge;
          f(PixelTile{x0, y0, std::min(x0 + kTileEdge, width),
                      std::min(y0 + kTileEdge, height)});
        }
      },
      kTilesPerChunk);
}

}  // namespace pviz::vis
