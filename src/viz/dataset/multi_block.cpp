#include "viz/dataset/multi_block.h"

#include <algorithm>

#include "util/parallel.h"

namespace pviz::vis {

namespace {

// One contiguous field-payload copy.  Destinations are disjoint across
// jobs and sources are never destinations (ghost fills read owned
// planes, owned-view gathers read a block's own window), so jobs — and
// chunks within a job — can run in any order with identical results.
struct CopyJob {
  const double* src = nullptr;
  double* dst = nullptr;
  Id count = 0;
};

void runCopies(util::ExecutionContext& ctx, const std::vector<CopyJob>& jobs,
               MultiBlockGrid::CopyStats& stats) {
  for (const CopyJob& job : jobs) {
    util::parallelForChunks(
        ctx, 0, job.count,
        [&job](std::int64_t b, std::int64_t e) {
          std::copy(job.src + b, job.src + e, job.dst + b);
        },
        util::kScanGrain);
    stats.bytes += static_cast<double>(job.count) * sizeof(double);
    stats.planes += 1;
  }
}

}  // namespace

MultiBlockGrid MultiBlockGrid::partition(const UniformGrid& global,
                                         Id blockCount, Id ghostLayers) {
  PVIZ_REQUIRE(blockCount >= 1, "block count must be >= 1");
  PVIZ_REQUIRE(ghostLayers >= 1,
               "multi-block domains need at least one ghost layer: a "
               "block's top point plane is owned by its neighbor and "
               "only arrives through the exchange");
  MultiBlockGrid mb;
  const Id3 pd = global.pointDims();
  const Id3 cd = global.cellDims();
  const Id blockTotal = std::min(blockCount, cd.k);
  mb.skeleton_ = UniformGrid(pd, global.origin(), global.spacing());
  mb.ghostLayers_ = ghostLayers;
  for (const auto& [name, field] : global.fields()) {
    mb.fieldInfo_.push_back({name, field.association(), field.components()});
  }

  const Id pointPlane = pd.i * pd.j;
  const Id cellPlane = cd.i * cd.j;
  for (Id bi = 0; bi < blockTotal; ++bi) {
    Block blk;
    blk.globalCellBegin = bi * cd.k / blockTotal;
    blk.globalCellEnd = (bi + 1) * cd.k / blockTotal;
    blk.ghostCellBegin = std::max<Id>(blk.globalCellBegin - ghostLayers, 0);
    blk.ghostCellEnd = std::min<Id>(blk.globalCellEnd + ghostLayers, cd.k);
    blk.ghosted =
        UniformGrid({pd.i, pd.j, blk.ghostCellEnd - blk.ghostCellBegin + 1},
                    global.origin(), global.spacing(),
                    {0, 0, blk.ghostCellBegin});
    const bool last = bi + 1 == blockTotal;
    for (const auto& [name, field] : global.fields()) {
      const bool onPoints = field.association() == Association::Points;
      Field local = Field::zeros(
          name, field.association(), field.components(),
          onPoints ? blk.ghosted.numPoints() : blk.ghosted.numCells());
      // Fill owned planes only; every ghost plane stays zero until
      // exchangeGhosts() so the exchange is observably load-bearing.
      const Id comps = field.components();
      Id srcPlane = blk.globalCellBegin;
      Id planeElems = 0;
      Id planes = 0;
      if (onPoints) {
        const Id ownedPlaneEnd = last ? cd.k + 1 : blk.globalCellEnd;
        planeElems = pointPlane * comps;
        planes = ownedPlaneEnd - blk.globalCellBegin;
      } else {
        planeElems = cellPlane * comps;
        planes = blk.ownedCells();
      }
      const auto srcAt =
          static_cast<std::size_t>(srcPlane * planeElems);
      const auto dstAt = static_cast<std::size_t>(
          (srcPlane - blk.ghostCellBegin) * planeElems);
      const auto count = static_cast<std::size_t>(planes * planeElems);
      std::copy(field.data().begin() + static_cast<std::ptrdiff_t>(srcAt),
                field.data().begin() +
                    static_cast<std::ptrdiff_t>(srcAt + count),
                local.data().begin() + static_cast<std::ptrdiff_t>(dstAt));
      blk.ghosted.addField(std::move(local));
    }
    mb.starts_.push_back(blk.globalCellBegin);
    mb.blocks_.push_back(std::move(blk));
  }
  return mb;
}

Id MultiBlockGrid::ownerOfCellPlane(Id k) const {
  PVIZ_ASSERT(k >= 0 && k < skeleton_.cellDims().k);
  auto it = std::upper_bound(starts_.begin(), starts_.end(), k);
  return static_cast<Id>(it - starts_.begin()) - 1;
}

MultiBlockGrid::CopyStats MultiBlockGrid::exchangeGhosts(
    util::ExecutionContext& ctx) {
  lastExchange_ = {};
  const Id3 pd = skeleton_.pointDims();
  const Id3 cd = skeleton_.cellDims();
  const Id pointPlane = pd.i * pd.j;
  const Id cellPlane = cd.i * cd.j;
  const Id blockTotal = numBlocks();
  // Point plane k = CK closes the last block's top cells; it has no
  // owning cell plane, so route it to the last block explicitly.
  auto pointPlaneOwner = [&](Id k) {
    return k >= cd.k ? blockTotal - 1 : ownerOfCellPlane(k);
  };

  std::vector<CopyJob> jobs;
  for (const FieldInfo& fi : fieldInfo_) {
    const Id comps = fi.components;
    for (Id bi = 0; bi < blockTotal; ++bi) {
      Block& blk = blocks_[static_cast<std::size_t>(bi)];
      double* dstData = blk.ghosted.field(fi.name).data().data();
      const bool last = bi + 1 == blockTotal;
      if (fi.assoc == Association::Points) {
        const Id elems = pointPlane * comps;
        const Id ownedPlaneEnd = last ? cd.k + 1 : blk.globalCellEnd;
        auto fill = [&](Id kb, Id ke) {
          for (Id k = kb; k < ke; ++k) {
            const Block& owner =
                blocks_[static_cast<std::size_t>(pointPlaneOwner(k))];
            jobs.push_back(
                {owner.ghosted.field(fi.name).data().data() +
                     (k - owner.ghostCellBegin) * elems,
                 dstData + (k - blk.ghostCellBegin) * elems, elems});
          }
        };
        fill(blk.ghostCellBegin, blk.globalCellBegin);
        fill(ownedPlaneEnd, blk.ghostCellEnd + 1);
      } else {
        const Id elems = cellPlane * comps;
        auto fill = [&](Id kb, Id ke) {
          for (Id k = kb; k < ke; ++k) {
            const Block& owner =
                blocks_[static_cast<std::size_t>(ownerOfCellPlane(k))];
            jobs.push_back(
                {owner.ghosted.field(fi.name).data().data() +
                     (k - owner.ghostCellBegin) * elems,
                 dstData + (k - blk.ghostCellBegin) * elems, elems});
          }
        };
        fill(blk.ghostCellBegin, blk.globalCellBegin);
        fill(blk.globalCellEnd, blk.ghostCellEnd);
      }
    }
  }
  runCopies(ctx, jobs, lastExchange_);

  // Materialize the owned views: the contiguous [c0, c1] point-plane /
  // [c0, c1) cell-plane window of the now-complete ghosted grid.  The
  // top point plane c1 is a ghost for every block but the last — it is
  // data the exchange just delivered.
  for (Id bi = 0; bi < blockTotal; ++bi) {
    Block& blk = blocks_[static_cast<std::size_t>(bi)];
    blk.owned = UniformGrid({pd.i, pd.j, blk.ownedCells() + 1},
                            skeleton_.origin(), skeleton_.spacing(),
                            {0, 0, blk.globalCellBegin});
    std::vector<CopyJob> gather;
    for (const FieldInfo& fi : fieldInfo_) {
      const bool onPoints = fi.assoc == Association::Points;
      blk.owned.addField(Field::forOverwrite(
          fi.name, fi.assoc, fi.components,
          onPoints ? blk.owned.numPoints() : blk.owned.numCells()));
      const Id elems = (onPoints ? pointPlane : cellPlane) * fi.components;
      const Id planes = blk.ownedCells() + (onPoints ? 1 : 0);
      gather.push_back(
          {blk.ghosted.field(fi.name).data().data() +
               (blk.globalCellBegin - blk.ghostCellBegin) * elems,
           blk.owned.field(fi.name).data().data(), planes * elems});
    }
    runCopies(ctx, gather, lastExchange_);
  }
  exchanged_ = true;
  return lastExchange_;
}

UniformGrid MultiBlockGrid::stitchGlobal(util::ExecutionContext& ctx) {
  PVIZ_REQUIRE(exchanged_, "stitchGlobal requires exchangeGhosts() first");
  lastStitch_ = {};
  const Id3 pd = skeleton_.pointDims();
  const Id3 cd = skeleton_.cellDims();
  const Id pointPlane = pd.i * pd.j;
  const Id cellPlane = cd.i * cd.j;
  UniformGrid global(pd, skeleton_.origin(), skeleton_.spacing());

  std::vector<CopyJob> jobs;
  for (const FieldInfo& fi : fieldInfo_) {
    const bool onPoints = fi.assoc == Association::Points;
    global.addField(Field::forOverwrite(fi.name, fi.assoc, fi.components,
                                        onPoints ? global.numPoints()
                                                 : global.numCells()));
    double* dstData = global.field(fi.name).data().data();
    const Id elems = (onPoints ? pointPlane : cellPlane) * fi.components;
    for (Id bi = 0; bi < numBlocks(); ++bi) {
      const Block& blk = blocks_[static_cast<std::size_t>(bi)];
      const bool last = bi + 1 == numBlocks();
      // Exclusive plane ownership keeps destination ranges disjoint
      // (plane c1 is written by its owner, block b+1, not by block b).
      const Id planes = blk.ownedCells() + (onPoints && last ? 1 : 0);
      jobs.push_back({blk.owned.field(fi.name).data().data(),
                      dstData + blk.globalCellBegin * elems, planes * elems});
    }
  }
  runCopies(ctx, jobs, lastStitch_);
  return global;
}

bool MultiBlockGrid::sampleScalar(const std::string& fieldName, const Vec3& p,
                                  double& out) const {
  PVIZ_REQUIRE(exchanged_, "domain sampling requires exchangeGhosts() first");
  Id3 cell;
  Vec3 t;
  if (!skeleton_.locateCell(p, cell, t)) return false;
  const Block& blk = blocks_[static_cast<std::size_t>(ownerOfCellPlane(cell.k))];
  const Id3 local{cell.i, cell.j, cell.k - blk.globalCellBegin};
  out = blk.owned.interpolateScalar(blk.owned.field(fieldName), local, t);
  return true;
}

bool MultiBlockGrid::sampleVector(const std::string& fieldName, const Vec3& p,
                                  Vec3& out) const {
  PVIZ_REQUIRE(exchanged_, "domain sampling requires exchangeGhosts() first");
  Id3 cell;
  Vec3 t;
  if (!skeleton_.locateCell(p, cell, t)) return false;
  const Block& blk = blocks_[static_cast<std::size_t>(ownerOfCellPlane(cell.k))];
  const Id3 local{cell.i, cell.j, cell.k - blk.globalCellBegin};
  out = blk.owned.interpolateVector(blk.owned.field(fieldName), local, t);
  return true;
}

double MultiBlockGrid::ownedFieldBytes() const {
  double bytes = 0;
  for (const Block& blk : blocks_) {
    for (const auto& [name, field] : blk.owned.fields()) {
      bytes += field.sizeBytes();
    }
  }
  return bytes;
}

}  // namespace pviz::vis
