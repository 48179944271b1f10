#pragma once
/// \file registry.hpp
/// What the program's own obs registry (tce/obs/metrics.hpp) recorded
/// during one operation: counter totals and histogram sums/counts.  The
/// traced run resets the registry and switches it on around each traced
/// operation alone, so its contents afterwards are that operation's.

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct RegistryDelta {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> hist_sum;
  std::map<std::string, std::uint64_t> hist_count;

  std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double sum(const std::string& name) const {
    const auto it = hist_sum.find(name);
    return it == hist_sum.end() ? 0 : it->second;
  }
  std::uint64_t count(const std::string& name) const {
    const auto it = hist_count.find(name);
    return it == hist_count.end() ? 0 : it->second;
  }
  void add(const RegistryDelta& other);
};

/// Current registry contents.
RegistryDelta registry_now();

}  // namespace perfbench
