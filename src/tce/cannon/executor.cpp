#include "tce/cannon/executor.hpp"

#include <algorithm>

#include "tce/common/checked.hpp"
#include "tce/common/error.hpp"
#include "tce/common/json.hpp"
#include "tce/obs/log.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/obs/trace.hpp"
#include "tce/tensor/box.hpp"
#include "tce/tensor/kernel.hpp"
#include "tce/tensor/matmul.hpp"
#include "tce/tensor/ttgt.hpp"

namespace tce {

namespace {

/// Logs the failure (with the active local-kernel configuration, so a
/// flight-recorder dump answers "which GEMM path and tiles were live
/// when the executor died?") and throws.
[[noreturn]] void fail_executor(const std::string& what) {
  if (obs::log_enabled(obs::LogLevel::kError)) {
    const KernelConfig cfg = kernel_config();
    obs::log_event(obs::LogLevel::kError, "cannon", "executor.fail",
                   json::ObjectWriter()
                       .field("error", what)
                       .field("kernel", kernel_kind_name(cfg.kind))
                       .field("kernel_isa", gemm_microkernel_isa())
                       .field("tile_mc", cfg.tiles.mc)
                       .field("tile_kc", cfg.tiles.kc)
                       .field("tile_nc", cfg.tiles.nc)
                       .str());
  }
  throw Error(what);
}

/// Extent of index \p d split `e` ways (the block length along it);
/// fails unless the grid edge divides it.
std::uint64_t split_len(const IndexSpace& space, IndexId d, std::uint32_t e) {
  const std::uint64_t n = space.extent(d);
  if (n % e != 0) {
    fail_executor("run_cannon: extent of index '" + space.name(d) + "' (" +
                  std::to_string(n) + ") must divide the grid edge " +
                  std::to_string(e));
  }
  return n / e;
}

/// Where the blocks of one array lie in its full tensor, walked in a
/// packed GEMM order: the walk of block (0, 0), and how far the base
/// offset moves per block coordinate of each of the two split indices.
struct BlockWalk {
  StridedBox box;
  std::uint64_t step1 = 0;
  std::uint64_t step2 = 0;

  StridedBox at(std::uint32_t b1, std::uint32_t b2) const {
    StridedBox b = box;
    b.base = checked_add(checked_mul(b1, step1), checked_mul(b2, step2));
    return b;
  }
};

/// The block walk of \p t in \p order (a permutation of its labels),
/// where \p s1 and \p s2 are split `e` ways into blocks of \p len1 and
/// \p len2 elements.
BlockWalk block_walk(const DenseTensor& t, const std::vector<IndexId>& order,
                     std::uint32_t e, IndexId s1, std::uint64_t len1,
                     IndexId s2, std::uint64_t len2) {
  TCE_EXPECTS(order.size() == t.rank());
  BlockWalk w;
  for (IndexId d : order) {
    const std::size_t pos = t.pos_of(d);
    const std::uint64_t stride = t.stride(pos);
    std::uint64_t len = t.extents()[pos];
    if (d == s1 || d == s2) {
      const std::uint64_t blk = d == s1 ? len1 : len2;
      TCE_EXPECTS_MSG(len == checked_mul(blk, e),
                      "split dimension disagrees with the index space");
      (d == s1 ? w.step1 : w.step2) = checked_mul(blk, stride);
      len = blk;
    }
    w.box.push(stride, 0, len);
  }
  return w;
}

std::vector<IndexId> concat(const std::vector<IndexId>& a,
                            const std::vector<IndexId>& b,
                            const std::vector<IndexId>& c) {
  std::vector<IndexId> out = a;
  out.insert(out.end(), b.begin(), b.end());
  out.insert(out.end(), c.begin(), c.end());
  return out;
}

/// The summation block that meets result block (bi, bj) at step s.
/// The schedule in executor.hpp gives logical processor (w1, w2) at
/// step s the triple
///   rot = k:  (bi, bj, bk) = (w1, w2, (w1+w2+s) mod e)
///   rot = i:  (bi, bj, bk) = ((w1+w2+s) mod e, w2, w1)
///   rot = j:  (bi, bj, bk) = (w1, (w1+w2+s) mod e, w2);
/// solving the moving coordinate for bk yields the cases below.
std::uint32_t bk_at(const CannonChoice& c, std::uint32_t e, std::uint32_t bi,
                    std::uint32_t bj, std::uint32_t s) {
  if (c.rot == c.k) return (bi + bj + s) % e;
  if (c.rot == c.i) return (bi + 2 * e - bj - s) % e;
  return (bj + 2 * e - bi - s) % e;  // rot == j
}

/// Network::run_phases, plus a histogram sample per phase duration
/// ("cannon.phase_s") when the registry is recording — per-phase
/// spread is what the p50/p99 of an execution's rotation steps read.
PhaseResult run_phases_observed(const Network& net,
                                const std::vector<Phase>& phases) {
  if (!obs::metrics_enabled()) return net.run_phases(phases);
  PhaseResult total;
  for (const Phase& p : phases) {
    const PhaseResult r = net.run_phase(p);
    obs::observe("cannon.phase_s", r.total_s());
    total.comm_s += r.comm_s;
    total.compute_s += r.compute_s;
  }
  return total;
}

}  // namespace

CannonRunResult run_cannon(const Network& net, const ProcGrid& grid,
                           const IndexSpace& space,
                           const ContractionNode& node,
                           const CannonChoice& choice,
                           const DenseTensor& left_full,
                           const DenseTensor& right_full) {
  if (node.kind != ContractionNode::Kind::kContraction ||
      !node.batch_indices.empty()) {
    fail_executor(
        "run_cannon: node is not a Cannon-representable contraction");
  }
  if (choice.i == kNoIndex || choice.j == kNoIndex ||
      choice.k == kNoIndex) {
    fail_executor(
        "run_cannon: the numeric executor requires a full (i,j,k) triplet");
  }
  TCE_EXPECTS(net.spec().procs() == grid.procs);

  const std::uint32_t e = grid.edge;
  const obs::TraceSpan run_span(
      obs::trace_enabled() ? "cannon.run " + node.tensor.name
                           : std::string(),
      "cannon");
  obs::count("cannon.runs");
  obs::count("cannon.steps", e);
  if (obs::trace_enabled()) {
    // The initial skewed alignment (each processor starts on its step-0
    // triple — Cannon's skew).
    obs::trace_instant(
        "cannon.skew " + node.tensor.name, "cannon",
        json::ObjectWriter()
            .field("rotation_index", space.name(choice.rot))
            .field("transposed", choice.transposed)
            .str());
  }
  // Physical rank of logical processor (w1, w2): the transposed
  // orientation swaps the grid dimensions.
  auto phys = [&](std::uint32_t w1, std::uint32_t w2) {
    return choice.transposed ? grid.rank(w2, w1) : grid.rank(w1, w2);
  };
  const TensorRef& c_ref = node.tensor;

  // Sanity: triplet indices belong to the right arrays.
  TCE_EXPECTS(node.left_indices.contains(choice.i));
  TCE_EXPECTS(node.right_indices.contains(choice.j));
  TCE_EXPECTS(node.sum_indices.contains(choice.k));

  const std::uint64_t len_i = split_len(space, choice.i, e);
  const std::uint64_t len_j = split_len(space, choice.j, e);
  const std::uint64_t len_k = split_len(space, choice.k, e);

  // ---- Numerics, block-major by block coordinate.  A block of an
  // array holds the same values on whichever processor the rotation
  // schedule puts it, so the numerics need no rotation: result block
  // (bi, bj) accumulates A(bi, bk)·B(bk, bj) for the bk each step s
  // brings it, in step order — the per-block order of the step-major
  // schedule, hence the same bits.
  const TtgtGroups g =
      classify_ttgt(left_full, right_full, c_ref.dims, node.sum_indices);
  TCE_EXPECTS_MSG(g.covered,
                  "ttgt: operand dimension outside result and sum labels");
  if (std::find(g.k.begin(), g.k.end(), choice.k) == g.k.end()) {
    fail_executor("run_cannon: summed index '" + space.name(choice.k) +
                  "' of the triplet must appear in both operands");
  }
  // A summed index found in only one operand is never split (the
  // triplet's k is in both), so reducing it over the full operand sums
  // exactly what each block's reduction summed, in the same order.
  const DenseTensor* pa = &left_full;
  const DenseTensor* pb = &right_full;
  DenseTensor a_red;
  DenseTensor b_red;
  if (!g.a_only_sum.empty()) {
    a_red = pre_reduce(left_full, g.a_only_sum);
    pa = &a_red;
  }
  if (!g.b_only_sum.empty()) {
    b_red = pre_reduce(right_full, g.b_only_sum);
    pb = &b_red;
  }
  const std::vector<IndexId> kdims = k_pack_order(*pa, g);

  CannonRunResult out;
  out.result = make_tensor(c_ref, space);
  const BlockWalk a_walk = block_walk(*pa, concat(g.batch, g.m, kdims), e,
                                      choice.i, len_i, choice.k, len_k);
  const BlockWalk b_walk = block_walk(*pb, concat(g.batch, kdims, g.n), e,
                                      choice.k, len_k, choice.j, len_j);
  const BlockWalk c_walk = block_walk(out.result, concat(g.batch, g.m, g.n),
                                      e, choice.i, len_i, choice.j, len_j);
  const std::uint64_t m_blk = g.m_elems / e;
  const std::uint64_t n_blk = g.n_elems / e;
  const std::uint64_t k_blk = g.k_elems / e;
  const std::size_t a_sz = a_walk.box.size();
  const std::size_t b_sz = b_walk.box.size();
  const std::size_t c_sz = c_walk.box.size();

  // Every operand block is gathered once, straight into its packed
  // [batch][m][k] / [batch][k][n] layout.  The smaller operand is
  // gathered whole up front, the larger one a panel at a time — the e
  // blocks A(bi, ·) of one block row of the result, or B(·, bj) of one
  // block column — and the result blocks are visited panel by panel, so
  // the packed copy of the larger operand is 1/e of it.
  const std::size_t np = static_cast<std::size_t>(e) * e;
  const bool panel_a = a_sz >= b_sz;
  std::vector<double> whole(checked_mul(np, panel_a ? b_sz : a_sz));
  std::vector<double> panel(checked_mul(e, panel_a ? a_sz : b_sz));
  auto a_block = [&](std::uint32_t bi, std::uint32_t bk) {
    return panel_a
               ? std::span<double>(panel).subspan(bk * a_sz, a_sz)
               : std::span<double>(whole).subspan(
                     (static_cast<std::size_t>(bi) * e + bk) * a_sz, a_sz);
  };
  auto b_block = [&](std::uint32_t bk, std::uint32_t bj) {
    return panel_a
               ? std::span<double>(whole).subspan(
                     (static_cast<std::size_t>(bk) * e + bj) * b_sz, b_sz)
               : std::span<double>(panel).subspan(bk * b_sz, b_sz);
  };
  for (std::uint32_t x = 0; x < e; ++x) {
    for (std::uint32_t y = 0; y < e; ++y) {
      if (panel_a) {
        gather_box(pb->data(), b_walk.at(x, y), b_block(x, y));
      } else {
        gather_box(pa->data(), a_walk.at(x, y), a_block(x, y));
      }
    }
  }

  // The step-major schedule formed each step's product in a zeroed
  // buffer and added it to the resident block.  When the kernel adds
  // each product to C in one addition anyway, the products go straight
  // into the block's accumulator; otherwise through that step buffer.
  const bool direct = matmul_acc_adds_once(m_blk, k_blk, n_blk);
  std::vector<double> acc(c_sz);
  std::vector<double> step(direct ? 0 : c_sz);
  for (std::uint32_t outer = 0; outer < e; ++outer) {
    for (std::uint32_t bk = 0; bk < e; ++bk) {
      if (panel_a) {
        gather_box(pa->data(), a_walk.at(outer, bk), a_block(outer, bk));
      } else {
        gather_box(pb->data(), b_walk.at(bk, outer), b_block(bk, outer));
      }
    }
    for (std::uint32_t inner = 0; inner < e; ++inner) {
      const std::uint32_t bi = panel_a ? outer : inner;
      const std::uint32_t bj = panel_a ? inner : outer;
      std::fill(acc.begin(), acc.end(), 0.0);
      for (std::uint32_t s = 0; s < e; ++s) {
        const std::uint32_t bk = bk_at(choice, e, bi, bj, s);
        if (!direct) std::fill(step.begin(), step.end(), 0.0);
        batched_matmul_acc(a_block(bi, bk), b_block(bk, bj),
                           direct ? acc : step, g.batch_elems, m_blk, k_blk,
                           n_blk);
        if (!direct) {
          for (std::size_t x = 0; x < c_sz; ++x) acc[x] += step[x];
        }
      }
      scatter_box(acc, c_walk.at(bi, bj), out.result.data());
    }
  }
  if (obs::metrics_enabled()) {
    // Layout traffic of the executor: the operand gathers, the result
    // scatter and, without direct accumulation, the zero-init and add of
    // every step's product.
    std::uint64_t moved = checked_add(
        checked_add(pa->size(), pb->size()), out.result.size());
    if (!direct) {
      moved = checked_add(moved, checked_mul(checked_mul(2, e),
                                             out.result.size()));
    }
    obs::count("kernel.pack_bytes", checked_mul(moved, sizeof(double)));
  }

  // ---- Simulated schedule.  The flows, compute loads and resident
  // bytes of every step depend only on the uniform block sizes and the
  // rotation maps, not on block contents.
  const std::uint64_t a_blk = left_full.size() / np;
  const std::uint64_t b_blk = right_full.size() / np;
  const std::uint64_t c_blk = out.result.size() / np;

  // Per-step per-rank compute: one block triple of the full loop space.
  const std::uint64_t loop_total =
      node.loop_indices().extent_product(space);
  const std::uint64_t flops_per_block =
      checked_mul(2, loop_total / (static_cast<std::uint64_t>(e) * e * e));

  // Which arrays shift, and along which logical dimension (1 → w1−1,
  // 2 → w2−1).  Canonical: left shifts along dim 2, right along dim 1,
  // result along dim 1 (rot=i) or dim 2 (rot=j).
  const bool a_rot = choice.rotates_left();
  const bool b_rot = choice.rotates_right();
  const bool c_rot = choice.rotates_result();
  const int c_dim = choice.rot == choice.i ? 1 : 2;

  // Every rank holds one block of each array plus, while a shift is in
  // flight, a receive buffer for the largest moving block.
  std::uint64_t largest_moving = 0;
  if (a_rot) largest_moving = std::max(largest_moving, a_blk);
  if (b_rot) largest_moving = std::max(largest_moving, b_blk);
  if (c_rot) largest_moving = std::max(largest_moving, c_blk);
  out.peak_rank_bytes =
      checked_mul(checked_add(checked_add(checked_add(a_blk, b_blk), c_blk),
                              largest_moving),
                  sizeof(double));

  std::vector<Phase> phases(e);
  for (std::uint32_t s = 0; s < e; ++s) {
    Phase& phase = phases[s];
    if (obs::trace_enabled()) {
      phase.label = node.tensor.name + " rotate step " +
                    std::to_string(s) + " (rot " +
                    space.name(choice.rot) + ")";
    }
    for (std::uint32_t w1 = 0; w1 < e; ++w1) {
      for (std::uint32_t w2 = 0; w2 < e; ++w2) {
        const std::uint32_t src = phys(w1, w2);
        phase.compute.push_back({src, flops_per_block});
        // Every step shifts; the last shift returns blocks to their
        // aligned start (the √P-step rotation accounting of §3.2).
        auto emit = [&](std::uint64_t elems, int logical_dim) {
          const std::uint32_t dst =
              logical_dim == 1 ? phys((w1 + e - 1) % e, w2)
                               : phys(w1, (w2 + e - 1) % e);
          if (src != dst) {
            phase.flows.push_back({src, dst, elems * sizeof(double)});
          }
        };
        if (a_rot) emit(a_blk, 2);
        if (b_rot) emit(b_blk, 1);
        if (c_rot) emit(c_blk, c_dim);
      }
    }
  }
  out.timing = run_phases_observed(net, phases);
  return out;
}


CannonRunResult run_replicated(const Network& net, const ProcGrid& grid,
                               const IndexSpace& space,
                               const ContractionNode& node,
                               const ReplicatedSpec& spec,
                               const DenseTensor& left_full,
                               const DenseTensor& right_full) {
  if (node.kind != ContractionNode::Kind::kContraction ||
      !node.batch_indices.empty()) {
    fail_executor(
        "run_replicated: node is not a Cannon-representable contraction");
  }
  TCE_EXPECTS(net.spec().procs() == grid.procs);
  const std::uint32_t e = grid.edge;
  const obs::TraceSpan run_span(
      obs::trace_enabled() ? "replicated.run " + node.tensor.name
                           : std::string(),
      "cannon");
  obs::count("cannon.replicated_runs");

  const DenseTensor& stat_full =
      spec.replicate_right ? left_full : right_full;
  const DenseTensor& repl_full =
      spec.replicate_right ? right_full : left_full;
  TensorRef stat_ref{"stationary", stat_full.dims()};
  TCE_EXPECTS_MSG(distribution_valid_for(spec.stationary_dist, stat_ref),
                  "stationary distribution names a missing dimension");
  TCE_EXPECTS_MSG(distribution_valid_for(spec.result_dist, node.tensor),
                  "result distribution names a missing dimension");

  // The partial result before the reduction is split only by the
  // stationary operand's result-side index (the position where the
  // result and stationary distributions agree); the scatter position is
  // a zero-cost relabel applied at gather time.
  auto partial_pos = [&](int d) {
    const IndexId r = spec.result_dist.at(d);
    return (r != kNoIndex && spec.stationary_dist.at(d) == r) ? r
                                                              : kNoIndex;
  };
  const Distribution partial_dist(partial_pos(1), partial_pos(2));

  std::vector<Phase> phases;

  // Allgather of the replicated operand (timing; numerically every rank
  // simply reads repl_full).
  {
    const std::uint64_t total = checked_mul(repl_full.size(), sizeof(double));
    const std::uint64_t block =
        std::max<std::uint64_t>(total / grid.procs, 1);
    for (std::uint32_t dist = 1; dist < grid.procs; dist *= 2) {
      Phase phase;
      if (obs::trace_enabled()) {
        phase.label = node.tensor.name + " allgather (distance " +
                      std::to_string(dist) + ")";
      }
      for (std::uint32_t r = 0; r < grid.procs; ++r) {
        if ((r ^ dist) < grid.procs) {
          phase.flows.push_back({r, r ^ dist, checked_mul(block, dist)});
        }
      }
      phases.push_back(std::move(phase));
    }
  }

  // Local compute: each rank contracts its stationary block against the
  // replicated operand (every rank holds it whole; the contraction reads
  // the k-slice matching the stationary block's summation range).
  TensorRef repl_ref{"replicated", repl_full.dims()};
  const IndexSet repl_dims = repl_ref.index_set();
  const Distribution repl_slice_dist(
      repl_dims.contains(spec.stationary_dist.at(1))
          ? spec.stationary_dist.at(1)
          : kNoIndex,
      repl_dims.contains(spec.stationary_dist.at(2))
          ? spec.stationary_dist.at(2)
          : kNoIndex);

  CannonRunResult out;
  out.result = make_tensor(node.tensor, space);
  std::uint64_t peak = 0;
  Phase compute_phase;
  if (obs::trace_enabled()) {
    compute_phase.label = node.tensor.name + " compute";
  }
  const int split_dims =
      (spec.stationary_dist.at(1) != kNoIndex ? 1 : 0) +
      (spec.stationary_dist.at(2) != kNoIndex ? 1 : 0);
  std::uint64_t per_rank_flops =
      checked_mul(2, node.loop_indices().extent_product(space));
  for (int d = 0; d < split_dims; ++d) per_rank_flops /= e;

  for (std::uint32_t z1 = 0; z1 < e; ++z1) {
    for (std::uint32_t z2 = 0; z2 < e; ++z2) {
      const BlockRange sr = block_range(stat_ref, spec.stationary_dist,
                                        space, grid, z1, z2);
      DenseTensor stat_blk = extract_block(stat_full, sr);
      DenseTensor repl_blk = extract_block(
          repl_full,
          block_range(repl_ref, repl_slice_dist, space, grid, z1, z2));
      const BlockRange pr = block_range(node.tensor, partial_dist, space,
                                        grid, z1, z2);
      std::vector<std::uint64_t> pext;
      for (std::size_t d = 0; d < pr.rank(); ++d) {
        pext.push_back(pr.extent(d));
      }
      DenseTensor partial(node.tensor.dims, std::move(pext));
      if (spec.replicate_right) {
        contract_blocks_acc(stat_blk, repl_blk, node.sum_indices,
                            partial);
      } else {
        contract_blocks_acc(repl_blk, stat_blk, node.sum_indices,
                            partial);
      }
      compute_phase.compute.push_back({grid.rank(z1, z2),
                                       per_rank_flops});
      peak = std::max(peak, (stat_blk.size() + repl_full.size() +
                             partial.size()) *
                                sizeof(double));

      // Accumulate into the full result; replicas (grid dims that split
      // nothing of the stationary operand and carry no reduction) only
      // contribute once.
      bool contribute = true;
      if (spec.stationary_dist.at(1) == kNoIndex && z1 != 0) {
        contribute = false;
      }
      if (spec.stationary_dist.at(2) == kNoIndex && z2 != 0) {
        contribute = false;
      }
      if (contribute) accumulate_block(partial, pr, out.result);
    }
  }
  phases.push_back(std::move(compute_phase));

  // Reduce-scatter of the partials (timing; the numeric sum happened in
  // the accumulation above).
  if (spec.reduce_dim != 0) {
    TensorRef res_ref = node.tensor;
    const std::uint64_t partial_bytes =
        dist_size(res_ref, partial_dist, IndexSet(), space, grid) *
        sizeof(double);
    std::uint64_t payload = partial_bytes / 2;
    auto rank_in_line = [&](std::uint32_t line, std::uint32_t pos) {
      return spec.reduce_dim == 1 ? grid.rank(pos, line)
                                  : grid.rank(line, pos);
    };
    for (std::uint32_t dist = e / 2; dist >= 1; dist /= 2) {
      Phase phase;
      if (obs::trace_enabled()) {
        phase.label = node.tensor.name + " reduce-scatter (distance " +
                      std::to_string(dist) + ")";
      }
      for (std::uint32_t line = 0; line < e; ++line) {
        for (std::uint32_t pos = 0; pos < e; ++pos) {
          phase.flows.push_back({rank_in_line(line, pos),
                                 rank_in_line(line, pos ^ dist),
                                 std::max<std::uint64_t>(payload, 1)});
        }
      }
      phases.push_back(std::move(phase));
      payload /= 2;
      if (dist == 1) break;
    }
  }

  out.timing = run_phases_observed(net, phases);
  out.peak_rank_bytes = peak;
  return out;
}

TreeRunResult run_tree(const Network& net, const ProcGrid& grid,
                       const ContractionTree& tree,
                       const std::map<NodeId, ExecChoice>& choices,
                       const std::map<std::string, DenseTensor>& inputs) {
  // Inputs are read in place; only intermediates are owned here.
  std::map<NodeId, const DenseTensor*> values;
  std::map<NodeId, DenseTensor> owned;
  TreeRunResult out;
  auto value = [&](NodeId id) -> const DenseTensor& {
    return *values.at(id);
  };
  auto store = [&](NodeId id, DenseTensor t) {
    values[id] = &(owned[id] = std::move(t));
  };
  auto release = [&](NodeId id) {
    if (id == kNoNode) return;
    values.erase(id);
    owned.erase(id);
  };

  for (NodeId id : tree.post_order()) {
    const ContractionNode& n = tree.node(id);
    switch (n.kind) {
      case ContractionNode::Kind::kInput: {
        auto it = inputs.find(n.tensor.name);
        if (it == inputs.end()) {
          fail_executor("run_tree: missing input '" + n.tensor.name +
                        "'");
        }
        values.emplace(id, &it->second);
        break;
      }
      case ContractionNode::Kind::kContraction: {
        ExecChoice choice;
        auto it = choices.find(id);
        if (it != choices.end()) {
          choice = it->second;
        } else {
          // Default: the first fully-assigned Cannon triplet.
          bool found = false;
          for (const auto& c : enumerate_cannon_choices(n)) {
            if (c.i != kNoIndex && c.j != kNoIndex && c.k != kNoIndex) {
              choice.cannon = c;
              found = true;
              break;
            }
          }
          if (!found) {
            fail_executor("run_tree: node '" + n.tensor.name +
                          "' admits no fully-assigned Cannon triplet");
          }
        }
        CannonRunResult r =
            choice.replicated
                ? run_replicated(net, grid, tree.space(), n, choice.repl,
                                 value(n.left), value(n.right))
                : run_cannon(net, grid, tree.space(), n, choice.cannon,
                             value(n.left), value(n.right));
        out.timing.comm_s += r.timing.comm_s;
        out.timing.compute_s += r.timing.compute_s;
        store(id, std::move(r.result));
        break;
      }
      case ContractionNode::Kind::kReduce: {
        // A pure reduction over locally complete data: modeled as local
        // compute (one add per input element per processor share).
        store(id, einsum_reduce(value(n.left), n.tensor.dims));
        out.timing.compute_s +=
            static_cast<double>(tree.flops(id) / grid.procs) /
            net.spec().flops_per_proc;
        break;
      }
    }
    release(n.left);
    release(n.right);
  }
  auto root = owned.find(tree.root());
  out.result = root != owned.end() ? std::move(root->second)
                                   : value(tree.root());
  return out;
}

TreeRunResult run_tree(const Network& net, const ProcGrid& grid,
                       const ContractionTree& tree,
                       const std::map<NodeId, CannonChoice>& choices,
                       const std::map<std::string, DenseTensor>& inputs) {
  std::map<NodeId, ExecChoice> exec;
  for (const auto& [id, c] : choices) {
    ExecChoice e;
    e.cannon = c;
    exec.emplace(id, e);
  }
  return run_tree(net, grid, tree, exec, inputs);
}

}  // namespace tce
