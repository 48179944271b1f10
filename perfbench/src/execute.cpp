/// execute: the Cannon executor with real numerics.  One operation is
/// one run_tree of paper.tce scaled by 1/8 at P = 16, with the plan's
/// Cannon choices and seeded inputs.  The local kernels, block
/// scatter/gather and simnet phases do the work and the planner none.

#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "metrics.hpp"
#include "plan_checks.hpp"
#include "problems.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#include "tce/cannon/executor.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/costmodel/characterization.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/tensor/einsum.hpp"
#include "tce/tensor/kernel.hpp"

namespace perfbench {
namespace {

using namespace tce;

constexpr std::uint32_t kProcs = 16;
constexpr std::uint32_t kPerNode = 2;
constexpr double kTolerance = 1e-9;

ContractionTree execute_tree() {
  return ContractionTree::from_sequence(
      parse_formula_sequence(kExecuteProgram));
}

/// Inputs depend on the seed only; the checker rebuilds them the same way.
std::map<std::string, DenseTensor> execute_inputs(const ContractionTree& tree,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  return make_random_inputs(tree, rng);
}

/// Checker side: the reference loop-nest evaluation of the same inputs,
/// computed once, against every result; the simulated times must repeat.
class ExecuteCheck final : public CheckLogic {
 public:
  explicit ExecuteCheck(std::uint64_t seed) : seed_(seed) {}

  Verdict handle(const std::string& request) override {
    if (request == "finish") {
      if (!seen_) return Verdict::fail("no result was checked");
      return Verdict::pass(num(plan_comm_s_) + " " + num(sim_runtime_s_));
    }
    // "op <plan_comm_s> <comm_s> <compute_s> <elements>\n<doubles>"
    const std::size_t nl = request.find('\n');
    std::istringstream head(request.substr(3, nl - 3));
    double plan_comm = 0, comm = 0, compute = 0;
    std::size_t n = 0;
    head >> plan_comm >> comm >> compute >> n;
    if (!reference_) {
      const ContractionTree tree = execute_tree();
      ScopedKernelConfig force_ref(KernelKind::kReference);
      reference_.emplace(evaluate_tree(tree, execute_inputs(tree, seed_)));
    }
    const std::span<const double> want = reference_->data();
    if (n != want.size() || request.size() - nl - 1 != n * sizeof(double)) {
      return Verdict::fail("result has " + std::to_string(n) +
                           " elements, the reference " +
                           std::to_string(want.size()));
    }
    const char* raw = request.data() + nl + 1;
    double worst = 0;
    for (std::size_t k = 0; k < n; ++k) {
      double got = 0;
      std::memcpy(&got, raw + k * sizeof(double), sizeof got);
      worst = std::max(worst, std::abs(got - want[k]));
    }
    if (!(worst <= kTolerance)) {
      return Verdict::fail("result differs from the reference evaluation "
                           "by " + num(worst));
    }
    if (!seen_) {
      seen_ = true;
      plan_comm_s_ = plan_comm;
      sim_runtime_s_ = comm + compute;
    } else if (plan_comm != plan_comm_s_ ||
               comm + compute != sim_runtime_s_) {
      return Verdict::fail("simulated times differ between operations");
    }
    return Verdict::pass();
  }

 private:
  std::uint64_t seed_;
  std::optional<DenseTensor> reference_;
  bool seen_ = false;
  double plan_comm_s_ = 0;
  double sim_runtime_s_ = 0;
};

class Execute final : public Workload {
 public:
  explicit Execute(std::uint64_t seed)
      : checker_([seed] { return std::make_unique<ExecuteCheck>(seed); }),
        seed_(seed) {}

  std::size_t traced_ops() const override { return 8; }

  void setup() override {
    tree_.emplace(execute_tree());
    inputs_ = execute_inputs(*tree_, seed_);
    grid_ = ProcGrid::make(kProcs, kPerNode);
    net_.emplace(ClusterSpec::itanium2003(grid_.nodes()));
    const CharacterizedModel model(characterize(*net_, grid_));
    OptimizerConfig cfg;
    cfg.threads = 1;
    const OptimizedPlan plan = optimize(*tree_, model, cfg);
    choices_.clear();
    for (const PlanStep& s : plan.steps) {
      if (s.tmpl != StepTemplate::kCannon || s.choice.i == kNoIndex ||
          s.choice.j == kNoIndex || s.choice.k == kNoIndex) {
        throw std::runtime_error("step " + s.result_name +
                                 " is not a full Cannon triplet");
      }
      choices_[s.node] = s.choice;
    }
    plan_comm_s_ = plan.total_comm_s;
    op(nullptr, 0);
  }

  void prepare(std::uint64_t /*i*/) override {}

  void op(Tracer* tracer, std::uint64_t op_id) override {
    ScopedSpan s(tracer, "cannon.run_tree", op_id);
    result_ = run_tree(*net_, grid_, *tree_, choices_, inputs_);
  }

  std::string check(std::uint64_t /*i*/, bool corrupt) override {
    std::span<double> data = result_.result.data();
    if (corrupt) data[0] += 1.0;
    std::string frame = "op " + num(plan_comm_s_) + " " +
                        num(result_.timing.comm_s) + " " +
                        num(result_.timing.compute_s) + " " +
                        std::to_string(data.size()) + "\n";
    frame.append(reinterpret_cast<const char*>(data.data()),
                 data.size() * sizeof(double));
    const Verdict v = checker_.call(frame);
    return v.ok ? std::string() : v.text;
  }

  /// run_tree's loop, one run_cannon per contraction node under its own
  /// span, so each node's share is visible.
  void probe(Tracer& tracer, std::uint64_t op_id) override {
    std::map<NodeId, DenseTensor> values;
    for (NodeId id : tree_->post_order()) {
      const ContractionNode& n = tree_->node(id);
      if (n.kind == ContractionNode::Kind::kInput) {
        values.emplace(id, inputs_.at(n.tensor.name));
        continue;
      }
      ScopedSpan s(&tracer, "cannon.node." + n.tensor.name, op_id);
      CannonRunResult r =
          run_cannon(*net_, grid_, tree_->space(), n, choices_.at(id),
                     values.at(n.left), values.at(n.right));
      values.erase(n.left);
      values.erase(n.right);
      values.emplace(id, std::move(r.result));
    }
  }

  Finish finish() override { return finish_from(checker_); }

  void layer_metrics(const TraceData& data, LayerValues& out) override {
    const Tracer& t = *data.tracer;
    const std::vector<double> run_ms = t.durations_ms("cannon.run_tree");
    std::vector<double> gemm_ms, self_ms;
    for (std::size_t k = 0; k < data.per_op.size() && k < run_ms.size();
         ++k) {
      const double g = data.per_op[k].sum("kernel.gemm_s") * 1e3;
      gemm_ms.push_back(g);
      self_ms.push_back(run_ms[k] - g);
    }
    out["cannon.run_tree_ms"] = median(run_ms);
    out["cannon.self_ms"] = median(self_ms);
    out["tensor.gemm_ms"] = median(gemm_ms);
    for (const char* node : {"T1", "T2", "S"}) {
      out[std::string("cannon.node_ms.") + node] =
          median_span_ms(t, std::string("cannon.node.") + node);
    }
    const double ops = static_cast<double>(data.ops);
    const double gemm_s = data.totals.sum("kernel.gemm_s");
    if (gemm_s > 0) {
      out["tensor.gemm_gflops"] =
          static_cast<double>(tree_->total_flops()) * ops / gemm_s /
          1e9;
    }
    out["tensor.tiled_calls"] =
        static_cast<double>(data.totals.counter("kernel.tiled_calls")) / ops;
    out["tensor.pack_bytes"] =
        static_cast<double>(data.totals.counter("kernel.pack_bytes")) / ops;
    fill_simnet_counters(data, out);
  }

 private:
  CheckerProcess checker_;
  std::uint64_t seed_;
  std::optional<ContractionTree> tree_;
  std::map<std::string, DenseTensor> inputs_;
  ProcGrid grid_;
  std::optional<Network> net_;
  std::map<NodeId, CannonChoice> choices_;
  double plan_comm_s_ = 0;
  TreeRunResult result_;
};

}  // namespace

std::unique_ptr<Workload> make_execute(std::uint64_t seed) {
  return std::make_unique<Execute>(seed);
}

}  // namespace perfbench
