/// perfbench: the tcemin benchmark program.  One process runs one
/// workload on one thread and prints its metrics; the last line of
/// stdout is one JSON object {"correct","attempted","failed","metrics"}.
///
///   perfbench --workload <plan-cold|search-deep|serve-mix|execute>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--corrupt] [--workdir <dir>]
///   perfbench --list-metrics
///
/// --trace 0 is the measured run: the end-to-end metrics, with the
/// program's own metrics registry off.  --trace 1 is the traced run: a
/// fixed number of operations, every other one under spans and the
/// registry, printing the per-layer metrics and writing the spans as
/// Chrome trace-event JSON to <workdir>/trace-<workload>.json.
/// --corrupt damages one output (operation 4) before it is checked: a
/// self-test that the checks have teeth, which must report it failed.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "metrics.hpp"
#include "runner.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#include "tce/common/parse.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/tensor/kernel.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool corrupt = false;
  bool list_metrics = false;
  std::string workdir = ".bench_build/perfbench/work";
};

[[noreturn]] void usage(const std::string& what) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--corrupt] [--workdir <dir>]\n"
               "       perfbench --list-metrics\n",
               what.c_str());
  std::exit(2);
}

/// Strict unsigned value of option \p name within [min, max].
std::uint64_t number_arg(const std::string& name, const std::string& text,
                         std::uint64_t min, std::uint64_t max) {
  const std::optional<std::uint64_t> v = tce::parse_u64_in(text, min, max);
  if (!v) {
    usage(name + " needs an integer in [" + std::to_string(min) + ", " +
          std::to_string(max) + "], got '" + text + "'");
  }
  return *v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = number_arg(a, value(), 0, UINT64_MAX);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(number_arg(a, value(), 1, 3600));
      have_seconds = true;
    } else if (a == "--trace") {
      o.trace = number_arg(a, value(), 0, 1) == 1;
      have_trace = true;
    } else if (a == "--corrupt") {
      o.corrupt = true;
    } else if (a == "--workdir") {
      o.workdir = value();
    } else if (a == "--list-metrics") {
      o.list_metrics = true;
    } else {
      usage("unknown argument '" + a + "'");
    }
  }
  if (!o.list_metrics &&
      (o.workload.empty() || !have_seed || !have_seconds || !have_trace)) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

/// A value with every digit a double carries.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Peak resident set of this process image in MB: VmHWM, which exec
/// resets.  getrusage's ru_maxrss would not do: Linux carries it across
/// fork and exec, so it reports the launching interpreter's peak
/// whenever that is larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

/// Prints "name value unit" lines, then the result object as the last
/// line of stdout.
void report(const std::vector<MetricSpec>& specs, const LayerValues& values,
            const Ledger& ledger, const Finish& finish) {
  for (const std::string& r : ledger.reasons()) {
    std::fprintf(stderr, "perfbench: operation failed: %s\n", r.c_str());
  }
  if (!finish.error.empty()) {
    std::fprintf(stderr, "perfbench: workload check failed: %s\n",
                 finish.error.c_str());
  }
  std::string metrics;
  for (const MetricSpec& m : specs) {
    const auto it = values.find(m.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%-28s %16.9g %s\n", m.name, v, m.unit);
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + std::string(m.name) + "\":{\"value\":" + fmt(v) +
               ",\"unit\":\"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      finish.error.empty() ? "true" : "false",
      static_cast<unsigned long long>(ledger.attempted()),
      static_cast<unsigned long long>(ledger.failed()), metrics.c_str());
}

int run(const Options& o) {
  if (o.list_metrics) {
    for (const MetricSpec& m : end_to_end_metrics()) {
      std::printf("end_to_end %s %s %s\n", m.name, m.unit, m.better);
    }
    for (const MetricSpec& m : per_layer_metrics()) {
      std::printf("per_layer %s %s %s\n", m.name, m.unit, m.better);
    }
    return 0;
  }
  // One thread throughout: the local GEMM kernel too (the planner and
  // the server get threads = 1 from each workload).
  tce::KernelConfig kcfg = tce::kernel_config();
  kcfg.threads = 1;
  tce::set_kernel_config(kcfg);
  tce::obs::metrics_enable(false);
  std::filesystem::create_directories(o.workdir);

  const std::unique_ptr<Workload> w =
      make_workload(o.workload, o.seed, o.workdir);
  if (w == nullptr) usage("unknown workload '" + o.workload + "'");
  RunOptions ro;
  ro.seconds = o.seconds;
  ro.corrupt = o.corrupt;
  if (o.trace) {
    Tracer tracer;
    const RunResult r = run_traced(*w, ro, tracer);
    const std::string path = o.workdir + "/trace-" + o.workload + ".json";
    write_file(path, tracer.chrome_json());
    std::printf("workload %s seed %llu: %llu traced operations, spans in "
                "%s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(r.timed_ops), path.c_str());
    report(per_layer_metrics(), r.values, r.ledger, r.finish);
  } else {
    RunResult r = run_measured(*w, ro);
    r.values["peak_rss_mb"] = peak_rss_mb();
    std::printf("workload %s seed %llu: %llu timed operations\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(r.timed_ops));
    report(end_to_end_metrics(), r.values, r.ledger, r.finish);
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
