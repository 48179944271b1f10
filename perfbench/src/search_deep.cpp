/// search-deep: the DP search alone.  One operation is one optimize()
/// of the four-contraction chain at P = 64 under a 400 MB node limit,
/// with the model characterized once in set-up.  The limit binds (T3 is
/// fused; with fusion disabled the prover certifies the problem
/// infeasible), so pruning and fusion both do work.

#include <optional>

#include "json_text.hpp"
#include "metrics.hpp"
#include "plan_checks.hpp"
#include "problems.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#include "tce/core/optimizer.hpp"
#include "tce/core/plan_json.hpp"
#include "tce/core/simulate.hpp"
#include "tce/costmodel/characterization.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/lint/comm_bounds.hpp"
#include "tce/lint/lint.hpp"

namespace perfbench {
namespace {

using namespace tce;

constexpr std::uint32_t kProcs = 64;
constexpr std::uint32_t kPerNode = 2;
constexpr std::uint64_t kLimit = 400'000'000;

ContractionTree chain_tree() {
  return ContractionTree::from_sequence(parse_formula_sequence(kChainProgram));
}

OptimizerConfig search_config(std::uint64_t limit) {
  OptimizerConfig cfg;
  cfg.mem_limit_node_bytes = limit;
  cfg.threads = 1;
  return cfg;
}

class SearchDeepCheck final : public CheckLogic {
 public:
  SearchDeepCheck()
      : tree_(chain_tree()),
        grid_(ProcGrid::make(kProcs, kPerNode)),
        net_(ClusterSpec::itanium2003(grid_.nodes())),
        model_(characterize(net_, grid_)) {}

  Verdict handle(const std::string& request) override {
    if (request == "finish") return finish();
    const std::string json = request.substr(request.find('\n') + 1);
    const OptimizedPlan plan = plan_from_json(json, tree_);
    if (std::string r = check_plan(tree_, model_, plan, kLimit, "chain");
        !r.empty()) {
      return Verdict::fail(r);
    }
    if (!unlimited_) {
      unlimited_ = optimize(tree_, model_, search_config(0)).total_comm_s;
    }
    if (plan.total_comm_s < *unlimited_ * (1 - 1e-12)) {
      return Verdict::fail("cost " + num(plan.total_comm_s) +
                           " s is below the unlimited-memory optimum " +
                           num(*unlimited_) + " s");
    }
    const std::string canonical = zero_wall_fields(json);
    if (first_.empty()) {
      first_ = canonical;
      comm_s_ = plan.total_comm_s;
      sim_runtime_s_ = simulate_plan_comm(net_, grid_, tree_, plan) +
                       plan.total_compute_s;
    } else if (canonical != first_) {
      return Verdict::fail("plan differs from the first operation's");
    }
    return Verdict::pass();
  }

 private:
  Verdict finish() {
    if (first_.empty()) return Verdict::fail("no plan was checked");
    lint::LintConfig lcfg;
    lcfg.mem_limit_node_bytes = kLimit;
    lcfg.enable_fusion = false;
    if (!lint::prove_infeasible(tree_, grid_, lcfg)) {
      return Verdict::fail(
          "with fusion disabled the prover does not certify the 400 MB "
          "limit infeasible");
    }
    return Verdict::pass(num(comm_s_) + " " + num(sim_runtime_s_));
  }

  ContractionTree tree_;
  ProcGrid grid_;
  Network net_;
  CharacterizedModel model_;
  std::optional<double> unlimited_;
  std::string first_;
  double comm_s_ = 0;
  double sim_runtime_s_ = 0;
};

class SearchDeep final : public Workload {
 public:
  SearchDeep()
      : checker_([] { return std::make_unique<SearchDeepCheck>(); }) {}

  std::size_t traced_ops() const override { return 10; }

  void setup() override {
    tree_.emplace(chain_tree());
    grid_ = ProcGrid::make(kProcs, kPerNode);
    Network net(ClusterSpec::itanium2003(grid_.nodes()));
    model_.emplace(characterize(net, grid_));
    op(nullptr, 0);
  }

  void prepare(std::uint64_t /*i*/) override {}

  void op(Tracer* tracer, std::uint64_t op_id) override {
    ScopedSpan s(tracer, "core.optimize", op_id);
    plan_ = optimize(*tree_, *model_, search_config(kLimit));
    if (tracer != nullptr) traced_stats_.push_back(plan_.stats);
  }

  std::string check(std::uint64_t /*i*/, bool corrupt) override {
    OptimizedPlan plan = plan_;
    if (corrupt) plan.total_comm_s *= 1.5;
    const Verdict v =
        checker_.call("op\n" + plan_to_json(plan, tree_->space()));
    return v.ok ? std::string() : v.text;
  }

  void probe(Tracer& tracer, std::uint64_t op_id) override {
    {
      ScopedSpan s(&tracer, "lint.prove_memory", op_id);
      lint::LintConfig lcfg;
      lcfg.mem_limit_node_bytes = kLimit;
      (void)lint::prove_infeasible(*tree_, grid_, lcfg);
    }
    {
      ScopedSpan s(&tracer, "lint.prove_comm", op_id);
      lint::CommBoundConfig bcfg;
      bcfg.mem_limit_node_bytes = kLimit;
      (void)lint::prove_comm(*tree_, grid_, bcfg);
    }
    ScopedSpan s(&tracer, "lint.plan_comm_words", op_id);
    (void)lint::plan_comm_words(*tree_, plan_, grid_);
  }

  Finish finish() override { return finish_from(checker_); }

  void layer_metrics(const TraceData& data, LayerValues& out) override {
    const Tracer& t = *data.tracer;
    out["core.optimize_ms"] = median_span_ms(t, "core.optimize");
    double optimize_total = 0;
    for (double ms : t.durations_ms("core.optimize")) optimize_total += ms;
    fill_core_counters(data, optimize_total, out);
    out["lint.prove_memory_ms"] = median_span_ms(t, "lint.prove_memory");
    out["lint.prove_comm_ms"] = median_span_ms(t, "lint.prove_comm");
    out["lint.plan_comm_words_ms"] =
        median_span_ms(t, "lint.plan_comm_words");
    std::map<std::string, std::vector<double>> node_ms;
    for (const OptimizerStats& st : traced_stats_) {
      for (const NodeSearchStats& n : st.nodes) {
        node_ms[n.result_name].push_back(n.wall_s * 1e3);
        out["core.node_candidates." + n.result_name] =
            static_cast<double>(n.candidates);
      }
    }
    for (auto& [name, ms] : node_ms) {
      out["core.node_ms." + name] = median(ms);
    }
  }

 private:
  CheckerProcess checker_;
  std::optional<ContractionTree> tree_;
  ProcGrid grid_;
  std::optional<CharacterizedModel> model_;
  OptimizedPlan plan_;
  std::vector<OptimizerStats> traced_stats_;
};

}  // namespace

std::unique_ptr<Workload> make_search_deep(std::uint64_t /*seed*/) {
  return std::make_unique<SearchDeep>();
}

}  // namespace perfbench
