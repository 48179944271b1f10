#pragma once
/// \file maxmin.hpp
/// Max–min fair rate allocation by progressive filling.
///
/// Given a set of flows, each traversing a subset of capacitated
/// resources, the max–min fair allocation raises all unfrozen flows'
/// rates uniformly until some resource saturates, freezes the flows
/// crossing it, and repeats.  This is the standard fluid model for
/// TCP-like fair sharing and is what the flow-level network simulator
/// uses to compute instantaneous transfer rates.
///
/// The solver works over flat storage: every path lives in one
/// compressed-sparse-row PathTable, and MaxMinSolver keeps its per-
/// resource scratch across calls, so re-solving a shrinking flow set
/// round after round allocates nothing once the buffers have grown.

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace tce {

/// One flow's resource usage: the ids of every resource it crosses.
using ResourcePath = std::vector<std::uint32_t>;

/// Many flows' resource paths in compressed sparse row form: path f is
/// the ids in [offsets[f], offsets[f+1]) of one shared id array.
class PathTable {
 public:
  void reserve(std::size_t paths, std::size_t ids) {
    offsets_.reserve(paths + 1);
    ids_.reserve(ids);
  }

  /// Appends a path; its index is the previous size().
  void add(std::initializer_list<std::uint32_t> path) {
    add(std::span<const std::uint32_t>(path.begin(), path.size()));
  }
  void add(std::span<const std::uint32_t> path) {
    ids_.insert(ids_.end(), path.begin(), path.end());
    offsets_.push_back(static_cast<std::uint32_t>(ids_.size()));
  }

  std::size_t size() const noexcept { return offsets_.size() - 1; }

  std::span<const std::uint32_t> operator[](std::size_t f) const {
    return {ids_.data() + offsets_[f], ids_.data() + offsets_[f + 1]};
  }

 private:
  std::vector<std::uint32_t> offsets_{0};
  std::vector<std::uint32_t> ids_;
};

/// Progressive-filling max–min solver.  One instance may be reused for
/// any number of solves (over any resource count); it is not safe to
/// share between threads.
class MaxMinSolver {
 public:
  /// Computes max–min fair rates for the flows listed in \p flows
  /// (indices into \p paths), writing the rate of flows[i] to rates[i].
  /// Flows saturating together freeze in list order.  A flow with an
  /// empty path gets \p unbounded_rate.  Every resource id must be
  /// < capacities.size() and every capacity a flow crosses must be > 0.
  void solve(const PathTable& paths, std::span<const std::uint32_t> flows,
             std::span<const double> capacities, std::span<double> rates,
             double unbounded_rate = 1e30);

 private:
  /// Capacity still unallocated, per resource (valid while loaded).
  std::vector<double> remaining_;
  /// Unfrozen flows crossing each resource; all zero between solves,
  /// since every flow is frozen — and gives its load back — by the end.
  std::vector<std::uint32_t> load_;
  /// Resources with nonzero load, ascending.
  std::vector<std::uint32_t> loaded_;
  /// Positions in `flows` not yet frozen, in list order.
  std::vector<std::uint32_t> unfrozen_;
};

/// Computes max–min fair rates (a MaxMinSolver over \p paths in order).
///
/// \param paths       per-flow resource id lists (ids < capacities.size());
///                    a flow with an empty path gets an infinite rate and
///                    is reported as `unbounded`.
/// \param capacities  per-resource capacity (must be > 0).
/// \returns per-flow rates; rates for unbounded flows are set to
///          `unbounded_rate`.
std::vector<double> maxmin_fair_rates(
    const std::vector<ResourcePath>& paths,
    const std::vector<double>& capacities,
    double unbounded_rate = 1e30);

}  // namespace tce
