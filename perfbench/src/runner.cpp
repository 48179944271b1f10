#include "runner.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <vector>

#include "registry.hpp"

#include "tce/obs/metrics.hpp"

namespace perfbench {
namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One operation's call, timed alone.  Returns its duration in ms, or
/// a negative value with \p reason set when it threw.
double timed_call(Workload& w, std::uint64_t i, Tracer* tracer,
                  std::string* reason) {
  const double t0 = now_ms();
  try {
    w.op(tracer, i);
  } catch (const std::exception& e) {
    *reason = std::string("operation raised: ") + e.what();
    return -1;
  }
  return now_ms() - t0;
}

/// Checks operations [first, first + n) in order, recording each in
/// \p ledger (an operation whose call threw is already failed).
void check_block(Workload& w, std::uint64_t first, std::size_t n,
                 const std::vector<std::string>& raised, bool corrupt,
                 Ledger& ledger) {
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t i = first + j;
    ledger.record(!raised[j].empty()
                      ? raised[j]
                      : w.check(i, corrupt && i == kCorruptOp));
  }
}

}  // namespace

RunResult run_measured(Workload& w, const RunOptions& o) {
  std::vector<double> setups;
  const auto timed_setup = [&] {
    const double t0 = now_ms();
    w.setup();
    setups.push_back((now_ms() - t0) / 1e3);
  };
  timed_setup();
  const std::size_t block = w.batch();
  RunResult out;
  std::vector<double> samples;
  std::vector<std::string> raised(block);
  double inside_ms = 0;
  const double loop_start = now_ms();
  for (std::uint64_t first = 0;; first += block) {
    const double elapsed_s = (now_ms() - loop_start) / 1e3;
    // Set-up k of the spread ones runs once k/kSetupRuns of the run
    // length has passed, between blocks, after every output so far has
    // been checked.
    if (setups.size() < kSetupRuns &&
        elapsed_s * static_cast<double>(kSetupRuns) >=
            o.seconds * static_cast<double>(setups.size())) {
      timed_setup();
    }
    if (should_stop(first, w.round() * block, kMinOps, elapsed_s, o.seconds,
                    kMaxLoopSeconds)) {
      break;
    }
    for (std::size_t j = 0; j < block; ++j) {
      raised[j].clear();
      w.prepare(first + j);
      const double ms = timed_call(w, first + j, nullptr, &raised[j]);
      if (ms >= 0) {
        samples.push_back(ms);
        inside_ms += ms;
      }
    }
    check_block(w, first, block, raised, o.corrupt, out.ledger);
  }
  // A loop cut short by kMaxLoopSeconds may not have reached them all.
  while (setups.size() < kSetupRuns) timed_setup();
  out.finish = w.finish();

  LayerValues& v = out.values;
  v["op_p75_ms"] = quantile(samples, 0.75);
  v["ops_per_s"] =
      inside_ms > 0 ? static_cast<double>(samples.size()) / (inside_ms / 1e3)
                    : 0;
  v["setup_s"] = median(setups);
  v["plan_comm_s"] = out.finish.plan_comm_s;
  v["sim_runtime_s"] = out.finish.sim_runtime_s;
  out.timed_ops = samples.size();
  return out;
}

RunResult run_traced(Workload& w, const RunOptions& o, Tracer& tracer) {
  w.setup();
  TraceData data;
  data.tracer = &tracer;
  RunResult out;
  std::vector<double> untraced_ms;
  // Workloads keep their outputs for one block only, so every block is
  // checked before the next one starts.
  const std::size_t block = w.batch();
  const std::uint64_t total = 2 * w.traced_ops();
  std::vector<std::string> raised(block);
  for (std::uint64_t first = 0; first < total; first += block) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(block, total - first));
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t i = first + j;
      raised[j].clear();
      w.prepare(i);
      if (i % 2 == 0) {
        const double ms = timed_call(w, i, nullptr, &raised[j]);
        if (ms >= 0) untraced_ms.push_back(ms);
        continue;
      }
      tce::obs::metrics_reset();
      tce::obs::metrics_enable(true);
      tracer.begin("op", i);
      timed_call(w, i, &tracer, &raised[j]);
      tracer.end();
      tce::obs::metrics_enable(false);
      const RegistryDelta delta = registry_now();
      data.per_op.push_back(delta);
      data.totals.add(delta);
      ++data.ops;
    }
    check_block(w, first, n, raised, o.corrupt, out.ledger);
    for (std::size_t j = 0; j < n; ++j) {
      if ((first + j) % 2 == 1) w.probe(tracer, first + j);
    }
  }

  LayerValues& v = out.values;
  w.layer_metrics(data, v);
  v["bench.trace_overhead_ms"] =
      median(tracer.durations_ms("op")) - median(untraced_ms);
  v["bench.span_residual_ms"] = median(tracer.self_times_ms("op"));
  out.finish = w.finish();
  out.timed_ops = data.ops;
  return out;
}

}  // namespace perfbench
