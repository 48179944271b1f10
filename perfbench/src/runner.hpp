#pragma once
/// \file runner.hpp
/// The two run loops over a workload (workload.hpp).  The measured run
/// gives the end-to-end metrics, except peak_rss_mb, which the caller
/// reads from its own process; the traced run gives the per-layer ones.

#include <cstdint>
#include <string>

#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

/// Set-ups per measured run; setup_s is their median.  The first comes
/// before the timed loop and the others are spread evenly across it, so
/// that they see the same mix of machine speeds as the operations.
constexpr std::size_t kSetupRuns = 9;
/// Fewest timed operations per measured run, so that at least 25
/// samples lie beyond the 75th percentile.
constexpr std::size_t kMinOps = 100;
/// Hard stop for the timed loop, whatever kMinOps asks, so a run on an
/// overloaded machine still ends well inside its time limit.
constexpr double kMaxLoopSeconds = 100;
/// The operation --corrupt damages.  It is never the first operation of
/// a plan-cold invocation, the one later operations are compared with.
constexpr std::uint64_t kCorruptOp = 4;

struct RunOptions {
  double seconds = 0;    ///< Length of the measured run's timed loop.
  bool corrupt = false;  ///< Damage operation kCorruptOp before its check.
};

struct RunResult {
  LayerValues values;
  Ledger ledger;
  Finish finish;
  std::uint64_t timed_ops = 0;  ///< Timed (measured) or traced operations.
};

/// The measured run: every end-to-end metric but peak_rss_mb.  The
/// program's metrics registry stays off.
RunResult run_measured(Workload& w, const RunOptions& o);

/// The traced run: operations alternate between untraced (even) and
/// traced (odd), the traced ones under an "op" span in \p tracer with
/// the metrics registry switched on around them alone.  Gives the
/// per-layer metrics.
RunResult run_traced(Workload& w, const RunOptions& o, Tracer& tracer);

}  // namespace perfbench
