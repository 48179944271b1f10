// Tests for tce/cannon: the distributed generalized Cannon executor must
// produce results identical to the reference einsum for every rotation
// choice and orientation, with sensible simulated timings.

#include <gtest/gtest.h>

#include "tce/cannon/executor.hpp"
#include "tce/common/error.hpp"
#include "tce/expr/parser.hpp"

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

}  // namespace
}  // namespace tce
