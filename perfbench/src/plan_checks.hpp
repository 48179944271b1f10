#pragma once
/// \file plan_checks.hpp
/// Checks every plan-producing workload applies, run in the checker
/// process: the plan passes the independent verifier under its limit,
/// and the certified communication lower bound does not exceed the
/// words the plan moves.

#include <cstdint>
#include <string>

#include "tce/core/plan.hpp"
#include "tce/costmodel/machine_model.hpp"
#include "tce/expr/contraction.hpp"

namespace perfbench {

/// Empty when \p plan passes verify_plan under \p mem_limit_node_bytes
/// (0 = no limit) and lint::prove_comm's bound ≤ lint::plan_comm_words;
/// otherwise the first failure.  \p what names the plan in the reason.
std::string check_plan(const tce::ContractionTree& tree,
                       const tce::MachineModel& model,
                       const tce::OptimizedPlan& plan,
                       std::uint64_t mem_limit_node_bytes,
                       const std::string& what);

/// Relative difference |a − b| / max(|a|, |b|, 1e-300).
double rel_diff(double a, double b);

/// Text for a number with all its digits.
std::string num(double v);

}  // namespace perfbench
