#include "tce/tensor/block.hpp"

#include "tce/common/error.hpp"
#include "tce/tensor/box.hpp"

namespace tce {

BlockRange block_range(const TensorRef& v, const Distribution& alpha,
                       const IndexSpace& space, const ProcGrid& grid,
                       std::uint32_t z1, std::uint32_t z2) {
  TCE_EXPECTS(z1 < grid.edge && z2 < grid.edge);
  TCE_EXPECTS(distribution_valid_for(alpha, v));

  BlockRange r;
  r.lo.reserve(v.dims.size());
  r.hi.reserve(v.dims.size());
  for (IndexId d : v.dims) {
    const std::uint64_t n = space.extent(d);
    const int dim = alpha.dim_of(d);
    if (dim == 0) {
      r.lo.push_back(0);
      r.hi.push_back(n);
    } else {
      if (n % grid.edge != 0) {
        throw Error("block_range: extent " + std::to_string(n) +
                    " of index '" + space.name(d) +
                    "' does not divide the grid edge " +
                    std::to_string(grid.edge));
      }
      const std::uint64_t chunk = n / grid.edge;
      const std::uint64_t z = (dim == 1) ? z1 : z2;
      r.lo.push_back(z * chunk);
      r.hi.push_back((z + 1) * chunk);
    }
  }
  return r;
}

namespace {

/// The walk over \p r inside \p full, in full's own dimension order.
StridedBox box_of(const DenseTensor& full, const BlockRange& r) {
  TCE_EXPECTS(full.rank() == r.rank());
  StridedBox box;
  for (std::size_t d = 0; d < r.rank(); ++d) {
    TCE_EXPECTS(r.lo[d] < r.hi[d] && r.hi[d] <= full.extents()[d]);
    box.push(full.stride(d), r.lo[d], r.extent(d));
  }
  return box;
}

}  // namespace

DenseTensor extract_block(const DenseTensor& full, const BlockRange& r) {
  std::vector<std::uint64_t> extents;
  for (std::size_t d = 0; d < r.rank(); ++d) extents.push_back(r.extent(d));
  DenseTensor block(full.dims(), std::move(extents));
  gather_box(full.data(), box_of(full, r), block.data());
  return block;
}

void place_block(const DenseTensor& block, const BlockRange& r,
                 DenseTensor& full) {
  scatter_box(block.data(), box_of(full, r), full.data());
}

void accumulate_block(const DenseTensor& block, const BlockRange& r,
                      DenseTensor& full) {
  scatter_box_acc(block.data(), box_of(full, r), full.data());
}

}  // namespace tce
