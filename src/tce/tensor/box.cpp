#include "tce/tensor/box.hpp"

#include <algorithm>

#include "tce/common/checked.hpp"
#include "tce/common/error.hpp"

namespace tce {

void StridedBox::push(std::uint64_t stride, std::uint64_t lo,
                      std::uint64_t len) {
  base = checked_add(base, checked_mul(lo, stride));
  lens.push_back(len);
  strides.push_back(stride);
}

std::uint64_t StridedBox::size() const {
  std::uint64_t n = 1;
  for (std::uint64_t len : lens) n = checked_mul(n, len);
  return n;
}

namespace {

/// Calls run(off, flat, len, stride) once per innermost run of \p box:
/// the run's `len` elements sit at tensor offsets off, off + stride, ...
/// and at buffer offsets flat, flat + 1, ...  Checks that the buffer
/// holds exactly the box and that the box lies inside a tensor of
/// \p tensor_size elements.
template <typename Run>
void for_each_run(const StridedBox& box, std::size_t buffer_size,
                  std::size_t tensor_size, Run&& run) {
  TCE_EXPECTS(box.lens.size() == box.strides.size());
  TCE_EXPECTS(buffer_size == box.size());
  std::uint64_t last = box.base;
  for (std::size_t i = 0; i < box.lens.size(); ++i) {
    TCE_EXPECTS(box.lens[i] > 0);
    last = checked_add(last, checked_mul(box.lens[i] - 1, box.strides[i]));
  }
  TCE_EXPECTS(last < tensor_size);

  // The buffer side is contiguous in walk order, so a loop whose stride
  // spans exactly the next loop merges into it: runs get longer and the
  // odometer turns less often (a block of whole trailing dimensions is
  // one run).  Length-1 loops drop out.
  std::vector<std::uint64_t> lens;
  std::vector<std::uint64_t> strides;
  for (std::size_t i = 0; i < box.lens.size(); ++i) {
    if (box.lens[i] == 1) continue;
    if (!lens.empty() &&
        strides.back() == box.lens[i] * box.strides[i]) {
      lens.back() *= box.lens[i];
      strides.back() = box.strides[i];
      continue;
    }
    lens.push_back(box.lens[i]);
    strides.push_back(box.strides[i]);
  }
  if (lens.empty()) {
    run(box.base, std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1});
    return;
  }

  const std::size_t outer = lens.size() - 1;
  const std::uint64_t len = lens[outer];
  const std::uint64_t stride = strides[outer];
  std::vector<std::uint64_t> idx(outer, 0);
  std::uint64_t off = box.base;
  for (std::uint64_t flat = 0;; flat += len) {
    run(off, flat, len, stride);
    // Odometer over the outer loops, last one fastest.
    std::size_t d = outer;
    for (; d > 0; --d) {
      const std::size_t i = d - 1;
      off += strides[i];
      if (++idx[i] < lens[i]) break;
      off -= lens[i] * strides[i];
      idx[i] = 0;
    }
    if (d == 0) return;
  }
}

}  // namespace

void gather_box(std::span<const double> src, const StridedBox& box,
                std::span<double> out) {
  const double* from = src.data();
  double* to = out.data();
  for_each_run(box, out.size(), src.size(),
               [&](std::uint64_t off, std::uint64_t flat, std::uint64_t len,
                   std::uint64_t stride) {
                 const double* s = from + off;
                 double* d = to + flat;
                 if (stride == 1) {
                   std::copy_n(s, len, d);
                 } else {
                   for (std::uint64_t j = 0; j < len; ++j) d[j] = s[j * stride];
                 }
               });
}

void scatter_box(std::span<const double> in, const StridedBox& box,
                 std::span<double> dst) {
  const double* from = in.data();
  double* to = dst.data();
  for_each_run(box, in.size(), dst.size(),
               [&](std::uint64_t off, std::uint64_t flat, std::uint64_t len,
                   std::uint64_t stride) {
                 const double* s = from + flat;
                 double* d = to + off;
                 if (stride == 1) {
                   std::copy_n(s, len, d);
                 } else {
                   for (std::uint64_t j = 0; j < len; ++j) d[j * stride] = s[j];
                 }
               });
}

void scatter_box_acc(std::span<const double> in, const StridedBox& box,
                     std::span<double> dst) {
  const double* from = in.data();
  double* to = dst.data();
  for_each_run(box, in.size(), dst.size(),
               [&](std::uint64_t off, std::uint64_t flat, std::uint64_t len,
                   std::uint64_t stride) {
                 const double* s = from + flat;
                 double* d = to + off;
                 if (stride == 1) {
                   for (std::uint64_t j = 0; j < len; ++j) d[j] += s[j];
                 } else {
                   for (std::uint64_t j = 0; j < len; ++j) d[j * stride] += s[j];
                 }
               });
}

}  // namespace tce
