/// plan-cold: the cold `tcemin plan` a user runs without a saved machine
/// table.  One operation is one in-process run_cli("plan", ...) at
/// P = 256 on one thread; operations cycle through three invocations of
/// alike cost, so the percentiles stay unimodal.  Characterization of
/// the simulated machine dominates this workload and no other.

#include <optional>
#include <stdexcept>

#include "json_text.hpp"
#include "metrics.hpp"
#include "plan_checks.hpp"
#include "problems.hpp"
#include "workloads.hpp"

#include "tce/cli/cli.hpp"
#include "tce/core/forest.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/core/plan_json.hpp"
#include "tce/core/simulate.hpp"
#include "tce/costmodel/characterization.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/forest.hpp"
#include "tce/expr/parser.hpp"
#include "tce/fuzz/brute.hpp"
#include "tce/verify/verifier.hpp"

namespace perfbench {
namespace {

using namespace tce;

constexpr std::uint32_t kProcs = 256;
constexpr std::uint32_t kPerNode = 2;

struct Invocation {
  const char* file;
  const char* program;
  const char* limit;
  std::uint64_t limit_bytes;
};

const Invocation kInvocations[3] = {
    {"paper.tce", kPaperProgram, "500MB", 500'000'000},
    {"paper.tce", kPaperProgram, "4GB", 4'000'000'000},
    {"forest.tce", kForestProgram, "4GB", 4'000'000'000},
};

ContractionForest forest_of(const char* program) {
  return ContractionForest::from_sequence(
      to_formula_sequence(parse_program(program), /*allow_forest=*/true));
}

/// Checker side: every output against the exhaustive planner, the
/// verifier and the communication bound; cross-op properties at finish.
class PlanColdCheck final : public CheckLogic {
 public:
  PlanColdCheck()
      : grid_(ProcGrid::make(kProcs, kPerNode)),
        net_(ClusterSpec::itanium2003(grid_.nodes())),
        model_(characterize(net_, grid_)) {}

  Verdict handle(const std::string& request) override {
    if (request == "finish") return finish();
    const std::size_t nl = request.find('\n');
    const std::size_t inv = std::stoul(request.substr(3, nl - 3));
    return check(inv, request.substr(nl + 1));
  }

 private:
  struct Seen {
    std::string canonical;  ///< Output with wall-clock fields zeroed.
    double comm_s = 0;
    double sim_runtime_s = 0;
  };

  /// Exhaustive minimum cost of \p tree under \p limit (memoized).
  double brute_min(std::size_t inv, std::size_t t, const ContractionTree& tree,
                   std::uint64_t limit) {
    const auto key = std::make_pair(inv, t);
    if (const auto it = brute_.find(key); it != brute_.end()) {
      return it->second;
    }
    OptimizerConfig cfg;
    cfg.mem_limit_node_bytes = limit;
    cfg.threads = 1;
    const fuzz::BruteResult r = fuzz::brute_force(tree, model_, cfg);
    if (r.skipped || r.root.empty()) {
      throw std::runtime_error("brute force gave no reference");
    }
    double best = r.root.front().cost;
    for (const fuzz::BruteSol& s : r.root) best = std::min(best, s.cost);
    brute_.emplace(key, best);
    return best;
  }

  Verdict check(std::size_t inv, const std::string& output) {
    const Invocation& iv = kInvocations[inv];
    const ContractionForest forest = forest_of(iv.program);
    const bool single = forest.trees.size() == 1;
    const std::vector<std::string> texts =
        single ? std::vector<std::string>{output} : split_array(output);
    if (texts.size() != forest.trees.size()) {
      return Verdict::fail("expected " + std::to_string(forest.trees.size()) +
                           " plans, got " + std::to_string(texts.size()));
    }
    Seen now;
    for (std::size_t t = 0; t < texts.size(); ++t) {
      const ContractionTree& tree = forest.trees[t];
      const OptimizedPlan plan = plan_from_json(texts[t], tree);
      const std::string what = std::string(iv.file) + " at " + iv.limit +
                               " tree " + std::to_string(t);
      // A forest splits its limit across trees; each tree is checked
      // against the invariants alone, as `tcemin plan --verify` does.
      const std::uint64_t limit = single ? iv.limit_bytes : 0;
      if (std::string r = check_plan(tree, model_, plan, limit, what);
          !r.empty()) {
        return Verdict::fail(r);
      }
      // 4 GB never binds on the forest's sub-megabyte arrays, so each of
      // its trees must reach its own unconstrained optimum.
      const double best = brute_min(inv, t, tree, limit);
      if (rel_diff(plan.total_comm_s, best) > 1e-9) {
        return Verdict::fail(what + ": cost " + num(plan.total_comm_s) +
                             " s differs from the exhaustive minimum " +
                             num(best) + " s");
      }
      if (inv == 0) {
        // The paper's Table 2 shape: at 500 MB, T1 is fused over f.
        const IndexSet want = IndexSet::single(tree.space().id("f"));
        bool found = false;
        for (const PlanStep& s : plan.steps) {
          if (s.result_name != "T1") continue;
          found = true;
          if (s.fusion != want) {
            return Verdict::fail(what + ": T1 is not fused over f alone");
          }
        }
        if (!found) return Verdict::fail(what + ": no step produces T1");
      }
      now.comm_s += plan.total_comm_s;
      now.sim_runtime_s += simulate_plan_comm(net_, grid_, tree, plan) +
                           plan.total_compute_s;
    }
    now.canonical = zero_wall_fields(output);
    const auto it = seen_.find(inv);
    if (it == seen_.end()) {
      seen_.emplace(inv, std::move(now));
    } else if (it->second.canonical != now.canonical) {
      return Verdict::fail(std::string(iv.file) + " at " + iv.limit +
                           ": plan differs from the first operation's");
    }
    return Verdict::pass();
  }

  Verdict finish() {
    if (seen_.size() != 3) {
      return Verdict::fail("not every invocation produced a checked plan");
    }
    if (seen_[0].comm_s < seen_[1].comm_s * (1 - 1e-12)) {
      return Verdict::fail("the 500 MB plan costs less than the 4 GB plan");
    }
    double comm = 0;
    double runtime = 0;
    for (const auto& [inv, s] : seen_) {
      comm += s.comm_s;
      runtime += s.sim_runtime_s;
    }
    return Verdict::pass(num(comm) + " " + num(runtime));
  }

  ProcGrid grid_;
  Network net_;
  CharacterizedModel model_;
  std::map<std::pair<std::size_t, std::size_t>, double> brute_;
  std::map<std::size_t, Seen> seen_;
};

class PlanCold final : public Workload {
 public:
  PlanCold(std::uint64_t seed, const std::string& workdir)
      : checker_([] { return std::make_unique<PlanColdCheck>(); }),
        offset_(seed % 3),
        workdir_(workdir) {}

  std::size_t round() const override { return 3; }
  std::size_t traced_ops() const override { return 6; }

  void setup() override {
    write_file(workdir_ + "/paper.tce", kPaperProgram);
    write_file(workdir_ + "/forest.tce", kForestProgram);
    prepare(0);
    op(nullptr, 0);
  }

  void prepare(std::uint64_t i) override { inv_ = (offset_ + i) % 3; }

  void op(Tracer* tracer, std::uint64_t op_id) override {
    const Invocation& iv = kInvocations[inv_];
    const std::string path = workdir_ + "/" + iv.file;
    if (tracer == nullptr) {
      const CliResult r =
          run_cli({"plan", path, "--procs", std::to_string(kProcs),
                   "--mem-limit", iv.limit, "--threads", "1", "--json",
                   "--verify"});
      if (r.exit_code != 0) {
        throw std::runtime_error("tcemin plan exited " +
                                 std::to_string(r.exit_code) + ": " + r.error);
      }
      output_ = r.output;
      return;
    }
    output_ = traced_plan(*tracer, op_id, path, iv);
  }

  std::string check(std::uint64_t /*i*/, bool corrupt) override {
    std::string out = output_;
    if (corrupt) scale_first_number(out, "total_comm_s", 1.5);
    const Verdict v =
        checker_.call("op " + std::to_string(inv_) + "\n" + out);
    return v.ok ? std::string() : v.text;
  }

  Finish finish() override { return finish_from(checker_); }

  void layer_metrics(const TraceData& data, LayerValues& out) override {
    const Tracer& t = *data.tracer;
    out["costmodel.characterize_ms"] =
        median_span_ms(t, "costmodel.characterize");
    out["expr.parse_ms"] = median_span_ms(t, "expr.parse");
    out["core.optimize_ms"] = median_span_ms(t, "core.optimize");
    out["verify.verify_ms"] = median_span_ms(t, "verify.verify");
    out["core.render_json_ms"] = median_span_ms(t, "core.render_json");
    double optimize_total = 0;
    for (double ms : t.durations_ms("core.optimize")) optimize_total += ms;
    fill_core_counters(data, optimize_total, out);
    fill_simnet_counters(data, out);
  }

 private:
  /// cmd_plan's stages called one by one, each under its layer's span,
  /// rendering the same output as run_cli.
  static std::string traced_plan(Tracer& tracer, std::uint64_t op_id,
                                 const std::string& path,
                                 const Invocation& iv) {
    const std::string text = read_file(path);
    const ProcGrid grid = ProcGrid::make(kProcs, kPerNode);
    std::optional<CharacterizedModel> model;
    {
      ScopedSpan s(&tracer, "costmodel.characterize", op_id);
      Network net(ClusterSpec::itanium2003(grid.nodes()));
      model.emplace(characterize(net, grid));
    }
    ContractionForest forest;
    {
      ScopedSpan s(&tracer, "expr.parse", op_id);
      forest = ContractionForest::from_sequence(
          to_formula_sequence(parse_program(text), /*allow_forest=*/true));
    }
    OptimizerConfig cfg;
    cfg.mem_limit_node_bytes = iv.limit_bytes;
    cfg.threads = 1;
    std::vector<OptimizedPlan> plans;
    {
      ScopedSpan s(&tracer, "core.optimize", op_id);
      if (forest.trees.size() == 1) {
        plans.push_back(optimize(forest.trees[0], *model, cfg));
      } else {
        plans = optimize_forest(forest, *model, cfg).plans;
      }
    }
    {
      ScopedSpan s(&tracer, "verify.verify", op_id);
      const bool single = plans.size() == 1;
      for (std::size_t t = 0; t < plans.size(); ++t) {
        const ContractionTree& tree = forest.trees[t];
        VerifyOptions opts;
        opts.mem_limit_node_bytes = single ? iv.limit_bytes : 0;
        const OptimizedPlan reread =
            plan_from_json(plan_to_json(plans[t], tree.space()), tree);
        if (!verify_plan(tree, *model, reread, opts).ok()) {
          throw std::runtime_error("plan verification failed");
        }
      }
    }
    ScopedSpan s(&tracer, "core.render_json", op_id);
    if (plans.size() == 1) {
      return plan_to_json(plans[0], forest.trees[0].space()) + "\n";
    }
    std::string out = "[";
    for (std::size_t t = 0; t < plans.size(); ++t) {
      if (t != 0) out += ",";
      out += plan_to_json(plans[t], forest.trees[t].space());
    }
    return out + "]\n";
  }

  CheckerProcess checker_;
  std::uint64_t offset_;
  std::string workdir_;
  std::size_t inv_ = 0;
  std::string output_;
};

}  // namespace

std::unique_ptr<Workload> make_plan_cold(std::uint64_t seed,
                                         const std::string& workdir) {
  return std::make_unique<PlanCold>(seed, workdir);
}

}  // namespace perfbench
