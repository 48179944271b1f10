#include "tce/tensor/matmul.hpp"

#include "tce/common/checked.hpp"
#include "tce/common/error.hpp"
#include "tce/tensor/kernel.hpp"
#include "tce/tensor/ttgt.hpp"

namespace tce {

void matmul_acc(std::span<const double> a, std::span<const double> b,
                std::span<double> c, std::size_t m, std::size_t k,
                std::size_t n) {
  TCE_EXPECTS(a.size() == m * k);
  TCE_EXPECTS(b.size() == k * n);
  TCE_EXPECTS(c.size() == m * n);

  const KernelConfig& cfg = kernel_config();
  const std::uint64_t mnk =
      checked_mul(checked_mul(static_cast<std::uint64_t>(m), k), n);
  if (select_kernel(cfg.kind, mnk) == KernelKind::kTiled) {
    gemm_tiled(a, b, c, m, k, n, cfg.tiles, cfg.threads);
  } else {
    gemm_ref(a, b, c, m, k, n, cfg.tiles);
  }
}

bool matmul_acc_adds_once(std::size_t m, std::size_t k, std::size_t n) {
  const KernelConfig& cfg = kernel_config();
  const std::uint64_t mnk =
      checked_mul(checked_mul(static_cast<std::uint64_t>(m), k), n);
  return select_kernel(cfg.kind, mnk) == KernelKind::kTiled &&
         k <= cfg.tiles.kc;
}

void batched_matmul_acc(std::span<const double> a, std::span<const double> b,
                        std::span<double> c, std::uint64_t batch,
                        std::uint64_t m, std::uint64_t k, std::uint64_t n) {
  const std::size_t a_slice = checked_mul(m, k);
  const std::size_t b_slice = checked_mul(k, n);
  const std::size_t c_slice = checked_mul(m, n);
  TCE_EXPECTS(a.size() == checked_mul(batch, a_slice));
  TCE_EXPECTS(b.size() == checked_mul(batch, b_slice));
  TCE_EXPECTS(c.size() == checked_mul(batch, c_slice));
  for (std::uint64_t bi = 0; bi < batch; ++bi) {
    matmul_acc(a.subspan(bi * a_slice, a_slice),
               b.subspan(bi * b_slice, b_slice),
               c.subspan(bi * c_slice, c_slice), m, k, n);
  }
}

void contract_blocks_acc(const DenseTensor& a, const DenseTensor& b,
                         IndexSet sum_indices, DenseTensor& c) {
  // The TTGT lowering classifies labels into (batch, M, N, K) from the
  // result's dims, pre-reduces one-operand summed labels, and runs the
  // per-batch GEMMs through the dispatching matmul_acc above — the
  // executor's local multiplies pick up the kernel-selection layer here.
  ttgt_contract_acc(a, b, sum_indices, c);
}

}  // namespace tce
