// Tests for tce/cannon: the distributed generalized Cannon executor must
// produce results identical to the reference einsum for every rotation
// choice and orientation, with sensible simulated timings.

#include <gtest/gtest.h>

#include <bit>

#include "tce/cannon/executor.hpp"
#include "tce/common/checked.hpp"
#include "tce/common/error.hpp"
#include "tce/expr/parser.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/tensor/kernel.hpp"
#include "tce/tensor/matmul.hpp"

namespace tce {
namespace {

// Small version of the paper's workload: same structure, grid-divisible
// extents that are cheap to evaluate numerically.
constexpr const char* kSmallPaper = R"(
  index a, b, c, d = 8
  index e, f = 4
  index i, j, k, l = 4
  T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
  T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
  S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
)";

class CannonFixture : public ::testing::Test {
 protected:
  CannonFixture()
      : tree_(ContractionTree::from_sequence(
            parse_formula_sequence(kSmallPaper))),
        grid_(ProcGrid::make(16, 2)),
        net_(ClusterSpec::itanium2003(8)),
        rng_(123),
        inputs_(make_random_inputs(tree_, rng_)) {}

  const ContractionNode& first_contraction() const {
    for (NodeId id : tree_.post_order()) {
      if (tree_.node(id).kind == ContractionNode::Kind::kContraction) {
        return tree_.node(id);
      }
    }
    throw Error("no contraction");
  }

  ContractionTree tree_;
  ProcGrid grid_;
  Network net_;
  Rng rng_;
  std::map<std::string, DenseTensor> inputs_;
};

TEST_F(CannonFixture, MatchesReferenceForEveryChoice) {
  const ContractionNode& n = first_contraction();
  const DenseTensor& b = inputs_.at("B");
  const DenseTensor& d = inputs_.at("D");
  const DenseTensor want =
      einsum_pair(b, d, n.tensor.dims, n.sum_indices);

  // All fully-assigned choices must give the same result (the summation
  // order within a block is fixed; across blocks the partial sums are
  // added in ring order, so allow roundoff).
  for (const auto& choice : enumerate_cannon_choices(n)) {
    if (choice.i == kNoIndex || choice.j == kNoIndex ||
        choice.k == kNoIndex) {
      continue;  // the numeric executor requires a full triplet
    }
    CannonRunResult r = run_cannon(net_, grid_, tree_.space(), n, choice,
                                   b, d);
    EXPECT_LT(want.max_abs_diff(r.result), 1e-10)
        << "choice i=" << int(choice.i) << " j=" << int(choice.j)
        << " k=" << int(choice.k) << " rot=" << int(choice.rot)
        << " transposed=" << choice.transposed;
    EXPECT_GT(r.timing.comm_s, 0.0);
    EXPECT_GT(r.timing.compute_s, 0.0);
    EXPECT_GT(r.peak_rank_bytes, 0u);
  }
}

TEST_F(CannonFixture, WholeTreeMatchesReference) {
  TreeRunResult r =
      run_tree(net_, grid_, tree_, std::map<NodeId, CannonChoice>{}, inputs_);
  DenseTensor want = evaluate_tree(tree_, inputs_);
  EXPECT_LT(want.max_abs_diff(r.result), 1e-9);
  EXPECT_GT(r.timing.comm_s, 0.0);
}

TEST_F(CannonFixture, TimingScalesWithRotatedVolume) {
  // Rotating the two small arrays must beat rotating a big one.  For the
  // first contraction (T1 = B·D), T1 is by far the largest array; choices
  // that keep T1 fixed (rot = k) should communicate less.
  const ContractionNode& n = first_contraction();
  double best_fixed_t1 = 1e300, best_rotating_t1 = 1e300;
  for (const auto& choice : enumerate_cannon_choices(n)) {
    if (choice.i == kNoIndex || choice.j == kNoIndex ||
        choice.k == kNoIndex) {
      continue;
    }
    CannonRunResult r = run_cannon(net_, grid_, tree_.space(), n, choice,
                                   inputs_.at("B"), inputs_.at("D"));
    if (choice.rotates_result()) {
      best_rotating_t1 = std::min(best_rotating_t1, r.timing.comm_s);
    } else {
      best_fixed_t1 = std::min(best_fixed_t1, r.timing.comm_s);
    }
  }
  EXPECT_LT(best_fixed_t1, best_rotating_t1);
}

TEST_F(CannonFixture, ComputeTimeMatchesFlopModel) {
  const ContractionNode& n = first_contraction();
  const CannonChoice choice = enumerate_cannon_choices(n).front();
  CannonRunResult r = run_cannon(net_, grid_, tree_.space(), n, choice,
                                 inputs_.at("B"), inputs_.at("D"));
  // Total flops split evenly across P ranks, perfectly parallel.
  const double want = static_cast<double>(tree_.flops(
                          [&] {
                            for (NodeId id : tree_.post_order()) {
                              if (&tree_.node(id) == &n) return id;
                            }
                            return kNoNode;
                          }())) /
                      grid_.procs / net_.spec().flops_per_proc;
  EXPECT_NEAR(r.timing.compute_s, want, 1e-9 * want);
}

TEST_F(CannonFixture, RejectsPartialTriplet) {
  // Matrix-vector contraction has an empty J set -> no full triplet.
  FormulaSequence seq = parse_formula_sequence(
      "index i = 16; index k = 16\ny[i] = sum[k] M[i,k] * x[k]");
  ContractionTree t = ContractionTree::from_sequence(seq);
  const ContractionNode& n = t.node(t.root());
  auto choices = enumerate_cannon_choices(n);
  Rng rng(5);
  auto ins = make_random_inputs(t, rng);
  EXPECT_THROW(run_cannon(net_, grid_, t.space(), n, choices.front(),
                          ins.at("M"), ins.at("x")),
               Error);
}

TEST_F(CannonFixture, RejectsNonDividingExtents) {
  FormulaSequence seq = parse_formula_sequence(
      "index i, j = 6; index k = 8\nC[i,j] = sum[k] A[i,k] * B[k,j]");
  ContractionTree t = ContractionTree::from_sequence(seq);
  Rng rng(5);
  auto ins = make_random_inputs(t, rng);
  const ContractionNode& n = t.node(t.root());
  // 6 does not divide edge 4.
  EXPECT_THROW(
      run_tree(net_, grid_, t, std::map<NodeId, CannonChoice>{}, ins),
      Error);
  (void)n;
}

// Parameterized sweep over random contraction shapes and grids: the
// executor must agree with the reference evaluator everywhere.
// Both fields are 64-bit so the struct has no padding: gtest names each
// case by the bytes of its parameter, and padding bytes would carry
// whatever the stack held, changing the names from run to run.
struct SweepCase {
  std::uint64_t procs;
  std::uint64_t seed;
};

class CannonSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CannonSweep, RandomShapesMatchReference) {
  const SweepCase param = GetParam();
  Rng rng(param.seed);
  const auto procs = static_cast<std::uint32_t>(param.procs);
  const ProcGrid grid = ProcGrid::make(procs, 1);
  ClusterSpec spec = ClusterSpec::itanium2003(procs);
  spec.procs_per_node = 1;
  spec.nodes = procs;
  Network net(spec);

  // Random contraction: ranks 2-3 per operand, extents multiples of edge.
  IndexSpace space;
  const std::uint32_t e = grid.edge;
  auto ext = [&] {
    return e * static_cast<std::uint64_t>(rng.uniform_int(1, 3));
  };
  IndexId i0 = space.add("i0", ext());
  IndexId i1 = space.add("i1", ext());
  IndexId j0 = space.add("j0", ext());
  IndexId j1 = space.add("j1", ext());
  IndexId k0 = space.add("k0", ext());
  IndexId k1 = space.add("k1", ext());

  TensorRef aref{"Aop", {i0, k0, i1, k1}};
  TensorRef bref{"Bop", {j0, k0, j1, k1}};
  TensorRef cref{"Cres", {i0, i1, j0, j1}};

  ContractionNode node;
  node.kind = ContractionNode::Kind::kContraction;
  node.tensor = cref;
  node.sum_indices = IndexSet::of({k0, k1});
  node.left_indices = IndexSet::of({i0, i1});
  node.right_indices = IndexSet::of({j0, j1});

  DenseTensor a = make_tensor(aref, space);
  DenseTensor b = make_tensor(bref, space);
  a.fill_random(rng);
  b.fill_random(rng);
  DenseTensor want = einsum_pair(a, b, cref.dims, node.sum_indices);

  // Try a handful of random fully-assigned choices.
  std::vector<CannonChoice> choices;
  for (const auto& c : enumerate_cannon_choices(node)) {
    if (c.i != kNoIndex && c.j != kNoIndex && c.k != kNoIndex) {
      choices.push_back(c);
    }
  }
  for (int t = 0; t < 4; ++t) {
    const auto& choice = choices[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(choices.size()) - 1))];
    CannonRunResult r = run_cannon(net, grid, space, node, choice, a, b);
    EXPECT_LT(want.max_abs_diff(r.result), 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndSeeds, CannonSweep,
    ::testing::Values(SweepCase{1, 1}, SweepCase{4, 2}, SweepCase{4, 3},
                      SweepCase{9, 4}, SweepCase{9, 5}, SweepCase{16, 6},
                      SweepCase{16, 7}, SweepCase{25, 8}));

// ------------------------------------------- block-major vs step-major
//
// run_cannon computes block-major by block coordinate.  The functions
// below are the step-major executor it replaced, kept as the oracle: every
// logical processor holds real blocks, contracts them each step through
// contract_blocks_acc, and the blocks move with each shift.  The two must
// agree to the bit on the result, the simulated times and the peak
// resident bytes.

struct OldSplit {
  IndexId index;
  std::uint32_t block;
};

BlockRange old_range_for(const TensorRef& ref, const IndexSpace& space,
                         std::uint32_t edge,
                         const std::vector<OldSplit>& splits) {
  BlockRange r;
  for (IndexId d : ref.dims) {
    const std::uint64_t n = space.extent(d);
    const OldSplit* split = nullptr;
    for (const auto& s : splits) {
      if (s.index == d) split = &s;
    }
    if (split == nullptr) {
      r.lo.push_back(0);
      r.hi.push_back(n);
    } else {
      if (n % edge != 0) throw Error("extent must divide the grid edge");
      const std::uint64_t chunk = n / edge;
      r.lo.push_back(split->block * chunk);
      r.hi.push_back((split->block + 1) * chunk);
    }
  }
  return r;
}

struct OldTriple {
  std::uint32_t bi, bj, bk;
};

OldTriple old_triple_at(const CannonChoice& c, std::uint32_t e,
                        std::uint32_t w1, std::uint32_t w2,
                        std::uint32_t s) {
  const std::uint32_t moving = (w1 + w2 + s) % e;
  if (c.rot == c.k) return {w1, w2, moving};
  if (c.rot == c.i) return {moving, w2, w1};
  return {w1, moving, w2};
}

CannonRunResult step_major_run_cannon(const Network& net,
                                      const ProcGrid& grid,
                                      const IndexSpace& space,
                                      const ContractionNode& node,
                                      const CannonChoice& choice,
                                      const DenseTensor& left_full,
                                      const DenseTensor& right_full) {
  const std::uint32_t e = grid.edge;
  auto phys = [&](std::uint32_t w1, std::uint32_t w2) {
    return choice.transposed ? grid.rank(w2, w1) : grid.rank(w1, w2);
  };
  TensorRef a_ref{"left", left_full.dims()};
  TensorRef b_ref{"right", right_full.dims()};
  const TensorRef& c_ref = node.tensor;

  const std::size_t np = static_cast<std::size_t>(e) * e;
  std::vector<DenseTensor> a_blk(np), b_blk(np), c_blk(np);
  std::vector<OldTriple> coords(np);
  for (std::uint32_t w1 = 0; w1 < e; ++w1) {
    for (std::uint32_t w2 = 0; w2 < e; ++w2) {
      const OldTriple t = old_triple_at(choice, e, w1, w2, 0);
      const std::size_t p = static_cast<std::size_t>(w1) * e + w2;
      coords[p] = t;
      a_blk[p] = extract_block(
          left_full, old_range_for(a_ref, space, e,
                                   {{choice.i, t.bi}, {choice.k, t.bk}}));
      b_blk[p] = extract_block(
          right_full, old_range_for(b_ref, space, e,
                                    {{choice.k, t.bk}, {choice.j, t.bj}}));
      const BlockRange cr = old_range_for(
          c_ref, space, e, {{choice.i, t.bi}, {choice.j, t.bj}});
      std::vector<std::uint64_t> cext;
      for (std::size_t d = 0; d < cr.rank(); ++d) {
        cext.push_back(cr.extent(d));
      }
      c_blk[p] = DenseTensor(c_ref.dims, std::move(cext));
    }
  }

  const std::uint64_t loop_total =
      node.loop_indices().extent_product(space);
  const std::uint64_t flops_per_block =
      checked_mul(2, loop_total / (static_cast<std::uint64_t>(e) * e * e));
  const bool a_rot = choice.rotates_left();
  const bool b_rot = choice.rotates_right();
  const bool c_rot = choice.rotates_result();
  auto shifted = [&](std::uint32_t w1, std::uint32_t w2,
                     int logical_dim) -> std::size_t {
    if (logical_dim == 1) w1 = (w1 + e - 1) % e;
    if (logical_dim == 2) w2 = (w2 + e - 1) % e;
    return static_cast<std::size_t>(w1) * e + w2;
  };

  std::vector<Phase> phases;
  std::uint64_t peak = 0;
  for (std::uint32_t s = 0; s < e; ++s) {
    Phase phase;
    for (std::uint32_t w1 = 0; w1 < e; ++w1) {
      for (std::uint32_t w2 = 0; w2 < e; ++w2) {
        const std::size_t p = static_cast<std::size_t>(w1) * e + w2;
        contract_blocks_acc(a_blk[p], b_blk[p], node.sum_indices, c_blk[p]);
        phase.compute.push_back({phys(w1, w2), flops_per_block});
        std::uint64_t resident = (a_blk[p].size() + b_blk[p].size() +
                                  c_blk[p].size()) *
                                 sizeof(double);
        std::uint64_t largest_moving = 0;
        if (a_rot) largest_moving = std::max(largest_moving, a_blk[p].size());
        if (b_rot) largest_moving = std::max(largest_moving, b_blk[p].size());
        if (c_rot) largest_moving = std::max(largest_moving, c_blk[p].size());
        peak = std::max(peak, resident + largest_moving * sizeof(double));
        auto emit = [&](const DenseTensor& blk, int logical_dim) {
          const std::size_t q = shifted(w1, w2, logical_dim);
          const std::uint32_t src = phys(w1, w2);
          const std::uint32_t dst =
              phys(static_cast<std::uint32_t>(q / e),
                   static_cast<std::uint32_t>(q % e));
          if (src != dst) {
            phase.flows.push_back({src, dst, blk.size() * sizeof(double)});
          }
        };
        if (a_rot) emit(a_blk[p], 2);
        if (b_rot) emit(b_blk[p], 1);
        if (c_rot) emit(c_blk[p], choice.rot == choice.i ? 1 : 2);
      }
    }
    phases.push_back(std::move(phase));
    auto apply_shift = [&](auto& items, int logical_dim) {
      std::remove_reference_t<decltype(items)> next(np);
      for (std::uint32_t w1 = 0; w1 < e; ++w1) {
        for (std::uint32_t w2 = 0; w2 < e; ++w2) {
          const std::size_t p = static_cast<std::size_t>(w1) * e + w2;
          next[shifted(w1, w2, logical_dim)] = std::move(items[p]);
        }
      }
      items = std::move(next);
    };
    if (a_rot) apply_shift(a_blk, 2);
    if (b_rot) apply_shift(b_blk, 1);
    if (c_rot) {
      apply_shift(c_blk, choice.rot == choice.i ? 1 : 2);
      apply_shift(coords, choice.rot == choice.i ? 1 : 2);
    }
  }

  CannonRunResult out;
  out.result = make_tensor(c_ref, space);
  for (std::uint32_t w1 = 0; w1 < e; ++w1) {
    for (std::uint32_t w2 = 0; w2 < e; ++w2) {
      const std::size_t p = static_cast<std::size_t>(w1) * e + w2;
      place_block(c_blk[p],
                  old_range_for(c_ref, space, e,
                                {{choice.i, coords[p].bi},
                                 {choice.j, coords[p].bj}}),
                  out.result);
    }
  }
  out.timing = net.run_phases(phases);
  out.peak_rank_bytes = peak;
  return out;
}

std::vector<std::uint64_t> bits_of(const DenseTensor& t) {
  std::vector<std::uint64_t> out;
  for (double v : t.data()) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// Asserts that both executors give the same bits for one choice.
void expect_same_as_step_major(const Network& net, const ProcGrid& grid,
                               const IndexSpace& space,
                               const ContractionNode& node,
                               const CannonChoice& choice,
                               const DenseTensor& a, const DenseTensor& b) {
  const CannonRunResult want =
      step_major_run_cannon(net, grid, space, node, choice, a, b);
  const CannonRunResult got =
      run_cannon(net, grid, space, node, choice, a, b);
  EXPECT_EQ(bits_of(got.result), bits_of(want.result));
  EXPECT_EQ(got.result.dims(), want.result.dims());
  EXPECT_EQ(got.timing.comm_s, want.timing.comm_s);
  EXPECT_EQ(got.timing.compute_s, want.timing.compute_s);
  EXPECT_EQ(got.peak_rank_bytes, want.peak_rank_bytes);
}

/// A P = e² grid with e ranks per node, so shifts cross both intra- and
/// inter-node links.
struct Machine {
  explicit Machine(std::uint32_t e)
      : grid(ProcGrid::make(e * e, e)), net([e] {
          ClusterSpec spec = ClusterSpec::itanium2003(e);
          spec.nodes = e;
          spec.procs_per_node = e;
          return spec;
        }()) {}
  ProcGrid grid;
  Network net;
};

/// The local kernels the executor may meet: the reference loops (each
/// step's product through a zeroed buffer), the tiled GEMM within one KC
/// block (products accumulated directly), and the tiled GEMM over
/// several KC blocks (through the buffer again).
std::vector<KernelConfig> kernel_variants() {
  KernelConfig ref;
  ref.kind = KernelKind::kReference;
  KernelConfig tiled;
  tiled.kind = KernelKind::kTiled;
  tiled.threads = 2;
  KernelConfig tiled_short_kc = tiled;
  tiled_short_kc.tiles.kc = 8;
  return {ref, tiled, tiled_short_kc};
}

/// C[i1,j0,i0,j1] = Σ_{k0,k1} A[k0,i0,k1,i1] · B[j1,k1,k0,j0] with
/// permuted layouts; i0, j0, k0 are split.  j0's extent is the grid
/// edge, so its blocks are one element wide.
struct PermutedContraction {
  explicit PermutedContraction(std::uint32_t e) {
    i0 = space.add("i0", 2 * e);
    i1 = space.add("i1", 3);
    j0 = space.add("j0", e);
    j1 = space.add("j1", 2);
    k0 = space.add("k0", 2 * e);
    k1 = space.add("k1", 5);
    node.kind = ContractionNode::Kind::kContraction;
    node.tensor = TensorRef{"C", {i1, j0, i0, j1}};
    node.sum_indices = IndexSet::of({k0, k1});
    node.left_indices = IndexSet::of({i0, i1});
    node.right_indices = IndexSet::of({j0, j1});
    Rng rng(17 + e);
    a = make_tensor(TensorRef{"A", {k0, i0, k1, i1}}, space);
    b = make_tensor(TensorRef{"B", {j1, k1, k0, j0}}, space);
    a.fill_random(rng);
    b.fill_random(rng);
  }
  IndexSpace space;
  IndexId i0{}, i1{}, j0{}, j1{}, k0{}, k1{};
  ContractionNode node;
  DenseTensor a, b;
};

std::vector<CannonChoice> every_rotation(IndexId i, IndexId j, IndexId k) {
  std::vector<CannonChoice> out;
  for (bool transposed : {false, true}) {
    for (IndexId rot : {i, j, k}) {
      CannonChoice c;
      c.i = i;
      c.j = j;
      c.k = k;
      c.transposed = transposed;
      c.rot = rot;
      out.push_back(c);
    }
  }
  return out;
}

TEST(CannonBlockMajor, MatchesStepMajorForEveryRotationAndEdge) {
  for (const KernelConfig& cfg : kernel_variants()) {
    const ScopedKernelConfig scoped(cfg);
    for (std::uint32_t e : {2u, 3u, 4u}) {
      const Machine m(e);
      const PermutedContraction c(e);
      for (const CannonChoice& choice : every_rotation(c.i0, c.j0, c.k0)) {
        SCOPED_TRACE("kernel=" + std::string(kernel_kind_name(cfg.kind)) +
                     " kc=" + std::to_string(cfg.tiles.kc) +
                     " e=" + std::to_string(e) +
                     " rot=" + c.space.name(choice.rot) +
                     " transposed=" + std::to_string(choice.transposed));
        expect_same_as_step_major(m.net, m.grid, c.space, c.node, choice,
                                  c.a, c.b);
      }
    }
  }
}

TEST(CannonBlockMajor, SplitIndicesWithBlockExtentOne) {
  // Every split extent equals the grid edge: all blocks are one element
  // wide along i, j and k.
  const std::uint32_t e = 3;
  const Machine m(e);
  IndexSpace space;
  const IndexId i = space.add("i", e);
  const IndexId j = space.add("j", e);
  const IndexId k = space.add("k", e);
  const IndexId x = space.add("x", 4);
  ContractionNode node;
  node.kind = ContractionNode::Kind::kContraction;
  node.tensor = TensorRef{"C", {j, x, i}};
  node.sum_indices = IndexSet::single(k);
  node.left_indices = IndexSet::of({i, x});
  node.right_indices = IndexSet::single(j);
  Rng rng(29);
  DenseTensor a = make_tensor(TensorRef{"A", {x, k, i}}, space);
  DenseTensor b = make_tensor(TensorRef{"B", {k, j}}, space);
  a.fill_random(rng);
  b.fill_random(rng);
  for (const KernelConfig& cfg : kernel_variants()) {
    const ScopedKernelConfig scoped(cfg);
    for (const CannonChoice& choice : every_rotation(i, j, k)) {
      expect_same_as_step_major(m.net, m.grid, space, node, choice, a, b);
    }
  }
}

/// C[i,j] = Σ_{k,s} A[s,i,k] · B[k,j] (or with s in B): s is summed but
/// found in one operand only, so that operand is pre-reduced over it.
struct OneOperandSum {
  explicit OneOperandSum(bool s_in_left) {
    i = space.add("i", 4);
    j = space.add("j", 6);
    k = space.add("k", 4);
    s = space.add("s", 3);
    node.kind = ContractionNode::Kind::kContraction;
    node.tensor = TensorRef{"C", {i, j}};
    node.sum_indices = IndexSet::of({k, s});
    node.left_indices = IndexSet::single(i);
    node.right_indices = IndexSet::single(j);
    Rng rng(s_in_left ? 31 : 37);
    a = make_tensor(TensorRef{"A", s_in_left ? std::vector<IndexId>{s, i, k}
                                             : std::vector<IndexId>{i, k}},
                    space);
    b = make_tensor(TensorRef{"B", s_in_left ? std::vector<IndexId>{k, j}
                                             : std::vector<IndexId>{k, s, j}},
                    space);
    a.fill_random(rng);
    b.fill_random(rng);
  }
  IndexSpace space;
  IndexId i{}, j{}, k{}, s{};
  ContractionNode node;
  DenseTensor a, b;
};

TEST(CannonBlockMajor, OneOperandSumIsPreReducedExactly) {
  const Machine m(2);
  for (bool s_in_left : {true, false}) {
    const OneOperandSum c(s_in_left);
    for (const KernelConfig& cfg : kernel_variants()) {
      const ScopedKernelConfig scoped(cfg);
      for (const CannonChoice& choice : every_rotation(c.i, c.j, c.k)) {
        SCOPED_TRACE("s_in_left=" + std::to_string(s_in_left) +
                     " rot=" + c.space.name(choice.rot));
        expect_same_as_step_major(m.net, m.grid, c.space, c.node, choice,
                                  c.a, c.b);
      }
    }
    // The one-operand index cannot be the triplet's k: it is found in
    // one operand only, so it cannot be split across both.
    CannonChoice bad = every_rotation(c.i, c.j, c.s).front();
    EXPECT_THROW(
        run_cannon(m.net, m.grid, c.space, c.node, bad, c.a, c.b), Error);
  }
}

TEST_F(CannonFixture, WholeTreeMatchesStepMajorChain) {
  // run_tree reads the inputs in place and chains run_cannon; chaining
  // the step-major oracle over the same default choices must give the
  // same bits and the same summed times.
  std::map<NodeId, DenseTensor> values;
  PhaseResult want_timing;
  for (NodeId id : tree_.post_order()) {
    const ContractionNode& n = tree_.node(id);
    if (n.kind == ContractionNode::Kind::kInput) {
      values.emplace(id, inputs_.at(n.tensor.name));
      continue;
    }
    CannonChoice choice;
    for (const auto& c : enumerate_cannon_choices(n)) {
      if (c.i != kNoIndex && c.j != kNoIndex && c.k != kNoIndex) {
        choice = c;
        break;
      }
    }
    CannonRunResult r = step_major_run_cannon(
        net_, grid_, tree_.space(), n, choice, values.at(n.left),
        values.at(n.right));
    want_timing.comm_s += r.timing.comm_s;
    want_timing.compute_s += r.timing.compute_s;
    values.erase(n.left);
    values.erase(n.right);
    values.emplace(id, std::move(r.result));
  }
  const TreeRunResult got =
      run_tree(net_, grid_, tree_, std::map<NodeId, CannonChoice>{}, inputs_);
  EXPECT_EQ(bits_of(got.result), bits_of(values.at(tree_.root())));
  EXPECT_EQ(got.timing.comm_s, want_timing.comm_s);
  EXPECT_EQ(got.timing.compute_s, want_timing.compute_s);
}

TEST(CannonBlockMajor, PackBytesCountTheExecutorsLayoutTraffic) {
  // C[i,j] = Σ_k A[i,k]·B[k,j], all extents 4, P = 4 (e = 2), reference
  // kernel (which packs nothing itself).  The executor gathers A and B
  // once (16 + 16 doubles), forms each of the e = 2 steps' products of
  // each result block in a zeroed buffer and adds it (2 · 2 · 16 over
  // the four blocks) and scatters C once (16): 112 doubles, 896 bytes.
  const ScopedKernelConfig scoped(KernelKind::kReference);
  const Machine m(2);
  FormulaSequence seq = parse_formula_sequence(
      "index i, j, k = 4\nC[i,j] = sum[k] A[i,k] * B[k,j]");
  ContractionTree t = ContractionTree::from_sequence(seq);
  Rng rng(41);
  auto ins = make_random_inputs(t, rng);
  const ContractionNode& n = t.node(t.root());
  const CannonChoice choice = enumerate_cannon_choices(n).front();
  const obs::ScopedMetrics metrics;
  run_cannon(m.net, m.grid, t.space(), n, choice, ins.at("A"), ins.at("B"));
  const auto snap = obs::metrics_snapshot();
  ASSERT_TRUE(snap.contains("kernel.pack_bytes"));
  EXPECT_EQ(snap.at("kernel.pack_bytes").total, 896u);
}

}  // namespace
}  // namespace tce
