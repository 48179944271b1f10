#pragma once
/// \file box.hpp
/// The strided box walk: every copy between a dense tensor and a packed
/// buffer goes through it.
///
/// A StridedBox is a rectangular sub-box of a row-major tensor's flat
/// storage, walked in a chosen dimension order: a base offset, then one
/// loop per dimension (outermost first) with its length and the tensor's
/// element stride for that dimension.  Gathering a box reads it into a
/// contiguous buffer in walk order; scattering writes or accumulates a
/// contiguous buffer back.  The innermost loop runs as one tight
/// (possibly strided) copy, and the outer loops advance an odometer that
/// keeps the running offset, so a walk costs O(1) per element.
///
/// Callers: TTGT packing walks a whole tensor in [batch][rows][cols]
/// order, the Cannon executor walks one block of a full array straight
/// into its GEMM layout, and block.hpp walks a block in the tensor's own
/// dimension order.

#include <cstdint>
#include <span>
#include <vector>

namespace tce {

/// A sub-box of a tensor's flat storage and the order it is walked in.
struct StridedBox {
  std::uint64_t base = 0;              ///< Flat offset of the first element.
  std::vector<std::uint64_t> lens;     ///< Loop lengths, outermost first.
  std::vector<std::uint64_t> strides;  ///< Matching element strides.

  /// Appends a loop over positions [lo, lo + len) of a tensor dimension
  /// whose element stride is \p stride.
  void push(std::uint64_t stride, std::uint64_t lo, std::uint64_t len);

  /// Element count: the product of the loop lengths (1 for rank 0).
  std::uint64_t size() const;
};

/// Copies the box out of \p src into \p out (out.size() == box.size()),
/// in walk order.
void gather_box(std::span<const double> src, const StridedBox& box,
                std::span<double> out);

/// Writes \p in (walk order, in.size() == box.size()) into the box of
/// \p dst.
void scatter_box(std::span<const double> in, const StridedBox& box,
                 std::span<double> dst);

/// Accumulates (+=) \p in (walk order) into the box of \p dst.
void scatter_box_acc(std::span<const double> in, const StridedBox& box,
                     std::span<double> dst);

}  // namespace tce
