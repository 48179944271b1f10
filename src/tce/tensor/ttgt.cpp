#include "tce/tensor/ttgt.hpp"

#include <algorithm>

#include "tce/common/checked.hpp"
#include "tce/common/error.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/tensor/box.hpp"
#include "tce/tensor/einsum.hpp"
#include "tce/tensor/matmul.hpp"

namespace tce {

namespace {

bool in_group(const std::vector<IndexId>& group, IndexId d) {
  return std::find(group.begin(), group.end(), d) != group.end();
}

/// The walk of \p t in the loop order batch ++ rows ++ cols.  The
/// groups must cover every dimension of \p t exactly once.
StridedBox group_box(const DenseTensor& t,
                     const std::vector<IndexId>& batch_dims,
                     const std::vector<IndexId>& row_dims,
                     const std::vector<IndexId>& col_dims) {
  if (batch_dims.size() + row_dims.size() + col_dims.size() != t.rank()) {
    throw Error("ttgt: dimension groups must cover the tensor");
  }
  StridedBox box;
  for (const std::vector<IndexId>* group : {&batch_dims, &row_dims,
                                            &col_dims}) {
    for (IndexId id : *group) {
      const std::size_t pos = t.pos_of(id);
      box.push(t.stride(pos), 0, t.extents()[pos]);
    }
  }
  return box;
}

}  // namespace

TtgtGroups classify_ttgt(const DenseTensor& a, const DenseTensor& b,
                         const std::vector<IndexId>& result_dims,
                         IndexSet sum_indices) {
  TtgtGroups g;
  for (IndexId d : result_dims) {
    if (sum_indices.contains(d)) {
      throw Error("einsum: summed label appears in result");
    }
    const bool in_a = a.has_dim(d);
    const bool in_b = b.has_dim(d);
    if (in_a && in_b) {
      g.batch.push_back(d);
    } else if (in_a) {
      g.m.push_back(d);
    } else if (in_b) {
      g.n.push_back(d);
    } else {
      throw Error("einsum: loop label missing from all operands");
    }
  }
  for (IndexId s : sum_indices) {
    const bool in_a = a.has_dim(s);
    const bool in_b = b.has_dim(s);
    if (in_a && in_b) {
      g.k.push_back(s);
    } else if (in_a) {
      g.a_only_sum.push_back(s);
    } else if (in_b) {
      g.b_only_sum.push_back(s);
    } else {
      throw Error("einsum: loop label missing from all operands");
    }
  }
  for (const std::vector<IndexId>* shared : {&g.batch, &g.k}) {
    for (IndexId d : *shared) {
      if (a.extent_of(d) != b.extent_of(d)) {
        throw Error("einsum: operands disagree on an extent");
      }
    }
  }
  for (IndexId d : a.dims()) {
    if (!in_group(g.batch, d) && !in_group(g.m, d) && !in_group(g.k, d) &&
        !in_group(g.a_only_sum, d)) {
      g.covered = false;
    }
  }
  for (IndexId d : b.dims()) {
    if (!in_group(g.batch, d) && !in_group(g.n, d) && !in_group(g.k, d) &&
        !in_group(g.b_only_sum, d)) {
      g.covered = false;
    }
  }
  for (IndexId d : g.batch) {
    g.batch_elems = checked_mul(g.batch_elems, a.extent_of(d));
  }
  for (IndexId d : g.m) g.m_elems = checked_mul(g.m_elems, a.extent_of(d));
  for (IndexId d : g.n) g.n_elems = checked_mul(g.n_elems, b.extent_of(d));
  for (IndexId d : g.k) g.k_elems = checked_mul(g.k_elems, a.extent_of(d));
  return g;
}

DenseTensor pre_reduce(const DenseTensor& t,
                       const std::vector<IndexId>& sums) {
  std::vector<IndexId> keep;
  for (IndexId d : t.dims()) {
    if (!in_group(sums, d)) keep.push_back(d);
  }
  return einsum_reduce(t, keep);
}

std::vector<IndexId> k_pack_order(const DenseTensor& a,
                                  const TtgtGroups& g) {
  std::vector<IndexId> kdims;
  for (IndexId d : a.dims()) {
    if (in_group(g.k, d)) kdims.push_back(d);
  }
  return kdims;
}

void ttgt_contract_acc(const DenseTensor& a, const DenseTensor& b,
                       IndexSet sum_indices, DenseTensor& c) {
  const TtgtGroups g = classify_ttgt(a, b, c.dims(), sum_indices);
  TCE_EXPECTS_MSG(g.covered,
                  "ttgt: operand dimension outside result and sum labels");

  // A summed label found in only one operand contributes a plain
  // reduction of that operand before the matrix product.
  const DenseTensor* pa = &a;
  const DenseTensor* pb = &b;
  DenseTensor a_red;
  DenseTensor b_red;
  if (!g.a_only_sum.empty()) {
    a_red = pre_reduce(a, g.a_only_sum);
    pa = &a_red;
  }
  if (!g.b_only_sum.empty()) {
    b_red = pre_reduce(b, g.b_only_sum);
    pb = &b_red;
  }

  const std::vector<IndexId> kdims = k_pack_order(*pa, g);
  const StridedBox ap = group_box(*pa, g.batch, g.m, kdims);
  const StridedBox bp = group_box(*pb, g.batch, kdims, g.n);
  const StridedBox cp = group_box(c, g.batch, g.m, g.n);

  std::vector<double> am(ap.size());
  std::vector<double> bm(bp.size());
  gather_box(pa->data(), ap, am);
  gather_box(pb->data(), bp, bm);
  std::vector<double> cm(cp.size(), 0.0);
  batched_matmul_acc(am, bm, cm, g.batch_elems, g.m_elems, g.k_elems,
                     g.n_elems);
  scatter_box_acc(cm, cp, c.data());

  if (obs::metrics_enabled()) {
    // Pack traffic of the lowering itself: both operand gathers plus
    // the zero-init and scatter of the result buffer.
    obs::count("kernel.pack_bytes",
               (am.size() + bm.size() + 2 * cm.size()) * sizeof(double));
  }
}

}  // namespace tce
