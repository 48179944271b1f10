#pragma once
/// \file stats.hpp
/// The benchmark's own bookkeeping: sample quantiles, the
/// attempted/failed ledger, and the LRU model that predicts the serve
/// cache's hit/miss answer for every request.  None of it calls into
/// the tce library, so tests can pin it on its own.

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Quantile \p q of \p samples by the nearest-rank rule: the element of
/// 1-based rank ⌈q·n⌉ in ascending order (rank 1 for q·n ≤ 1).  Returns 0
/// for an empty sample.  Takes a copy because it sorts.
double quantile(std::vector<double> samples, double q);

/// Median by the same nearest-rank rule (rank ⌈n/2⌉).
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// How many operations a run attempted and how many failed, with the
/// first failure reasons kept for the log.
class Ledger {
 public:
  /// Records one operation: \p reason empty = it succeeded.
  void record(const std::string& reason);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Up to the first eight failure reasons, in order.
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// The run loop's stopping rule: a run stops only between whole rounds
/// of \p round operations, once it has attempted at least \p min_ops
/// (rounded up to whole rounds) and measured for \p seconds, or once
/// \p max_seconds have passed whatever the count.  \p next is the index
/// of the operation about to start.
bool should_stop(std::uint64_t next, std::size_t round, std::size_t min_ops,
                 double elapsed_s, double seconds, double max_seconds);

/// Strict-LRU model over problem ids with a fixed capacity, mirroring
/// the serve plan cache's documented policy (docs/SERVING.md): a lookup
/// refreshes recency, a miss inserts at the front, and an insert past
/// capacity evicts the least recently used id.
class LruModel {
 public:
  explicit LruModel(std::size_t capacity) : capacity_(capacity) {}

  /// Looks up \p id and inserts it on a miss; returns true on a hit.
  bool access(std::uint64_t id);

  std::size_t size() const { return index_.size(); }
  std::uint64_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  std::list<std::uint64_t> order_;  ///< Most recent first.
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
      index_;
  std::uint64_t evictions_ = 0;
};

}  // namespace perfbench
