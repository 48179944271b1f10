#pragma once
/// \file ttgt.hpp
/// TTGT lowering of pairwise einsum contractions.
///
/// A contraction C[result] += Σ_sum A·B is reduced to a batched matrix
/// product by classifying every index into one of four groups:
///
///   batch — in A, B, and the result        (outer loop)
///   M     — in A and the result only       (GEMM rows)
///   N     — in B and the result only       (GEMM columns)
///   K     — summed, in both A and B        (GEMM depth)
///
/// A summed index present in only one operand is handled by
/// pre-reducing that operand (einsum_reduce) before the lowering; K may
/// be empty (pure outer product, GEMM with k = 1).  Operands are packed
/// into contiguous [batch][rows][cols] buffers by the strided box walk
/// (tce/tensor/box.hpp), the per-batch slices go through the
/// dispatching matmul_acc, and the result buffer is scattered back with
/// accumulation (docs/KERNELS.md).

#include "tce/expr/index.hpp"
#include "tce/tensor/dense.hpp"

namespace tce {

/// The index classification of one pairwise contraction.
struct TtgtGroups {
  std::vector<IndexId> batch;  ///< In both operands and the result.
  std::vector<IndexId> m;      ///< A ∩ result, not in B.
  std::vector<IndexId> n;      ///< B ∩ result, not in A.
  std::vector<IndexId> k;      ///< Summed, in both operands.
  /// Summed indices found in only one operand — that operand is
  /// pre-reduced over them before the GEMM.
  std::vector<IndexId> a_only_sum;
  std::vector<IndexId> b_only_sum;
  /// False when an operand carries a dimension outside result ∪ sum;
  /// the reference loop nest silently pins such dims to index 0, so
  /// callers must fall back to it to preserve semantics.
  bool covered = true;

  std::uint64_t batch_elems = 1;
  std::uint64_t m_elems = 1;
  std::uint64_t n_elems = 1;
  std::uint64_t k_elems = 1;
};

/// Classifies \p result_dims / \p sum_indices against the operands.
/// Throws tce::Error on label/extent inconsistencies (same conditions
/// and messages as the reference einsum).
TtgtGroups classify_ttgt(const DenseTensor& a, const DenseTensor& b,
                         const std::vector<IndexId>& result_dims,
                         IndexSet sum_indices);

/// \p t summed over \p sums (labels found in only this operand), the
/// remaining labels kept in t's order: the TTGT pre-reduction.
DenseTensor pre_reduce(const DenseTensor& t,
                       const std::vector<IndexId>& sums);

/// The K labels of \p g in \p a's layout order: the depth order that
/// both operand packs share.
std::vector<IndexId> k_pack_order(const DenseTensor& a,
                                  const TtgtGroups& g);

/// c[c.dims()] += Σ_sum a·b via pack → GEMM → unpack.  \p c must carry
/// exactly the non-summed labels (the classification is derived from
/// it); requires classify_ttgt(...).covered.  The per-batch GEMMs go
/// through matmul_acc, so the kernel-selection layer applies.
void ttgt_contract_acc(const DenseTensor& a, const DenseTensor& b,
                       IndexSet sum_indices, DenseTensor& c);

}  // namespace tce
