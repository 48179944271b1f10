#include "registry.hpp"

#include "tce/obs/metrics.hpp"

namespace perfbench {

void RegistryDelta::add(const RegistryDelta& other) {
  for (const auto& [k, v] : other.counters) counters[k] += v;
  for (const auto& [k, v] : other.hist_sum) hist_sum[k] += v;
  for (const auto& [k, v] : other.hist_count) hist_count[k] += v;
}

RegistryDelta registry_now() {
  RegistryDelta out;
  for (const auto& [name, m] : tce::obs::metrics_snapshot()) {
    if (m.kind == tce::obs::Metric::Kind::kCounter) {
      out.counters[name] = m.total;
    } else if (m.kind == tce::obs::Metric::Kind::kHistogram) {
      out.hist_sum[name] = m.sum;
      out.hist_count[name] = m.count;
    }
  }
  return out;
}

}  // namespace perfbench
