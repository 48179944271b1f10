#include "plan_checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "tce/lint/comm_bounds.hpp"
#include "tce/verify/verifier.hpp"

namespace perfbench {

std::string check_plan(const tce::ContractionTree& tree,
                       const tce::MachineModel& model,
                       const tce::OptimizedPlan& plan,
                       std::uint64_t mem_limit_node_bytes,
                       const std::string& what) {
  tce::VerifyOptions opts;
  opts.mem_limit_node_bytes = mem_limit_node_bytes;
  const tce::VerifyReport report = tce::verify_plan(tree, model, plan, opts);
  if (!report.ok()) {
    return what + ": verify_plan found diagnostics:\n" + report.str(tree);
  }
  tce::lint::CommBoundConfig bcfg;
  bcfg.mem_limit_node_bytes = mem_limit_node_bytes;
  const std::uint64_t lb =
      tce::lint::prove_comm(tree, model.grid(), bcfg).root_lb_words;
  const std::uint64_t achieved =
      tce::lint::plan_comm_words(tree, plan, model.grid());
  if (lb > achieved) {
    return what + ": certified lower bound " + std::to_string(lb) +
           " words exceeds the achieved " + std::to_string(achieved);
  }
  return {};
}

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max({std::abs(a), std::abs(b), 1e-300});
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
