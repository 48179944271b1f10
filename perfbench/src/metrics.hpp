#pragma once
/// \file metrics.hpp
/// The catalog of metrics the benchmark prints (BENCHMARK.json lists the
/// same names; `perfbench --list-metrics` prints them for comparison),
/// and helpers shared by the workloads' per-layer metrics.

#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher".
};

/// The seven end-to-end metrics, printed by every untraced run.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Every per-layer metric, printed by every traced run (0 where the
/// workload does not call that layer).
const std::vector<MetricSpec>& per_layer_metrics();

/// Median duration (ms) of the spans named \p name; 0 when none.
double median_span_ms(const Tracer& tracer, const std::string& name);

/// The core.* counters per traced operation, from the registry's opt.*
/// counters, plus candidates_per_ms over \p optimize_ms_total and
/// kept_ratio.
void fill_core_counters(const TraceData& data, double optimize_ms_total,
                        LayerValues& out);

/// simnet.flows and simnet.phases per traced operation.
void fill_simnet_counters(const TraceData& data, LayerValues& out);

}  // namespace perfbench
