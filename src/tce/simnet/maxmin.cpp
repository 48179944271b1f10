#include "tce/simnet/maxmin.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "tce/common/assert.hpp"

namespace tce {

void MaxMinSolver::solve(const PathTable& paths,
                         std::span<const std::uint32_t> flows,
                         std::span<const double> capacities,
                         std::span<double> rates, double unbounded_rate) {
  const std::size_t nr = capacities.size();
  TCE_EXPECTS(rates.size() == flows.size());
  // Validate before touching load_, so a throw leaves it all zero.
  for (const std::uint32_t f : flows) {
    TCE_EXPECTS(f < paths.size());
    for (const std::uint32_t r : paths[f]) TCE_EXPECTS(r < nr);
  }
  if (load_.size() < nr) {
    load_.resize(nr, 0);
    remaining_.resize(nr);
  }

  unfrozen_.clear();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto path = paths[flows[i]];
    if (path.empty()) {
      rates[i] = unbounded_rate;
      continue;
    }
    unfrozen_.push_back(static_cast<std::uint32_t>(i));
    for (const std::uint32_t r : path) ++load_[r];
  }
  loaded_.clear();
  for (std::uint32_t r = 0; r < nr; ++r) {
    if (load_[r] == 0) continue;
    TCE_EXPECTS(capacities[r] > 0);
    remaining_[r] = capacities[r];
    loaded_.push_back(r);
  }

  double level = 0.0;  // current uniform rate of all unfrozen flows
  while (!unfrozen_.empty()) {
    // The next saturation point: the resource minimizing
    // level + remaining / load over resources with unfrozen flows.
    double next_level = std::numeric_limits<double>::infinity();
    for (const std::uint32_t r : loaded_) {
      next_level = std::min(next_level, level + remaining_[r] / load_[r]);
    }
    TCE_ENSURES(next_level < std::numeric_limits<double>::infinity());

    const double delta = next_level - level;
    // Charge the uniform increase to every resource.
    for (const std::uint32_t r : loaded_) remaining_[r] -= delta * load_[r];
    level = next_level;

    // Freeze flows crossing any saturated resource, in list order (a
    // frozen flow's load leaves its resources before later flows are
    // tested).  A small epsilon absorbs floating-point residue.
    const double eps = 1e-9 * level + 1e-18;
    std::size_t kept = 0;
    for (const std::uint32_t i : unfrozen_) {
      const auto path = paths[flows[i]];
      bool saturated = false;
      for (const std::uint32_t r : path) {
        if (remaining_[r] <= eps * load_[r] + 1e-30) {
          saturated = true;
          break;
        }
      }
      if (saturated) {
        rates[i] = level;
        for (const std::uint32_t r : path) --load_[r];
      } else {
        unfrozen_[kept++] = i;
      }
    }
    unfrozen_.resize(kept);
    std::erase_if(loaded_, [&](std::uint32_t r) { return load_[r] == 0; });
  }
}

std::vector<double> maxmin_fair_rates(
    const std::vector<ResourcePath>& paths,
    const std::vector<double>& capacities, double unbounded_rate) {
  for (double c : capacities) TCE_EXPECTS(c > 0);
  PathTable table;
  for (const ResourcePath& p : paths) table.add(p);
  std::vector<std::uint32_t> flows(paths.size());
  std::iota(flows.begin(), flows.end(), 0u);
  std::vector<double> rates(paths.size(), 0.0);
  MaxMinSolver().solve(table, flows, capacities, rates, unbounded_rate);
  return rates;
}

}  // namespace tce
