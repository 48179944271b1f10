#include "metrics.hpp"

#include "stats.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"op_p75_ms", "ms", "lower"},
      {"ops_per_s", "1/s", "higher"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"plan_comm_s", "sim-s", "lower"},
      {"sim_runtime_s", "sim-s", "lower"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"costmodel.characterize_ms", "ms", "lower"},
      {"simnet.flows", "count/op", "lower"},
      {"simnet.phases", "count/op", "lower"},
      {"expr.parse_ms", "ms", "lower"},
      {"core.optimize_ms", "ms", "lower"},
      {"core.candidates", "count/op", "lower"},
      {"core.infeasible", "count/op", "lower"},
      {"core.dominated", "count/op", "lower"},
      {"core.kept", "count/op", "lower"},
      {"core.redistributions", "count/op", "lower"},
      {"core.curve_lookups", "count/op", "lower"},
      {"core.curve_extrapolations", "count/op", "lower"},
      {"core.candidates_per_ms", "1/ms", "higher"},
      {"core.kept_ratio", "ratio", "higher"},
      {"core.node_ms.T1", "ms", "lower"},
      {"core.node_ms.T2", "ms", "lower"},
      {"core.node_ms.T3", "ms", "lower"},
      {"core.node_ms.T4", "ms", "lower"},
      {"core.node_candidates.T1", "count/op", "lower"},
      {"core.node_candidates.T2", "count/op", "lower"},
      {"core.node_candidates.T3", "count/op", "lower"},
      {"core.node_candidates.T4", "count/op", "lower"},
      {"lint.prove_memory_ms", "ms", "lower"},
      {"lint.prove_comm_ms", "ms", "lower"},
      {"lint.plan_comm_words_ms", "ms", "lower"},
      {"verify.verify_ms", "ms", "lower"},
      {"core.render_json_ms", "ms", "lower"},
      {"serve.hit_ms", "ms", "lower"},
      {"serve.miss_ms", "ms", "lower"},
      {"serve.canonicalize_ms", "ms", "lower"},
      {"serve.cache_hits", "count", "higher"},
      {"serve.cache_misses", "count", "lower"},
      {"serve.cache_evictions", "count", "lower"},
      {"serve.hit_ratio", "ratio", "higher"},
      {"cannon.run_tree_ms", "ms", "lower"},
      {"cannon.node_ms.T1", "ms", "lower"},
      {"cannon.node_ms.T2", "ms", "lower"},
      {"cannon.node_ms.S", "ms", "lower"},
      {"cannon.self_ms", "ms", "lower"},
      {"tensor.gemm_ms", "ms", "lower"},
      {"tensor.gemm_gflops", "GFLOP/s", "higher"},
      {"tensor.tiled_calls", "count/op", "lower"},
      {"tensor.pack_bytes", "B/op", "lower"},
      {"bench.trace_overhead_ms", "ms", "lower"},
      {"bench.span_residual_ms", "ms", "lower"},
  };
  return specs;
}

double median_span_ms(const Tracer& tracer, const std::string& name) {
  return median(tracer.durations_ms(name));
}

void fill_core_counters(const TraceData& data, double optimize_ms_total,
                        LayerValues& out) {
  const double ops = static_cast<double>(data.ops);
  const auto per_op = [&](const char* counter) {
    return static_cast<double>(data.totals.counter(counter)) / ops;
  };
  out["core.candidates"] = per_op("opt.candidates");
  out["core.infeasible"] = per_op("opt.infeasible");
  out["core.dominated"] = per_op("opt.dominated");
  out["core.kept"] = per_op("opt.kept");
  out["core.redistributions"] = per_op("opt.redistributions");
  out["core.curve_lookups"] = per_op("opt.curve.lookups");
  out["core.curve_extrapolations"] = per_op("opt.curve.extrapolations");
  const double candidates =
      static_cast<double>(data.totals.counter("opt.candidates"));
  if (optimize_ms_total > 0) {
    out["core.candidates_per_ms"] = candidates / optimize_ms_total;
  }
  if (candidates > 0) {
    out["core.kept_ratio"] =
        static_cast<double>(data.totals.counter("opt.kept")) / candidates;
  }
}

void fill_simnet_counters(const TraceData& data, LayerValues& out) {
  const double ops = static_cast<double>(data.ops);
  out["simnet.flows"] =
      static_cast<double>(data.totals.counter("simnet.flows")) / ops;
  out["simnet.phases"] =
      static_cast<double>(data.totals.counter("simnet.phases")) / ops;
}

}  // namespace perfbench
