#pragma once
/// \file metrics.hpp
/// Process-wide metrics registry: named counters, gauges and
/// histograms, off by default.  The design goal is a no-op mode cheap
/// enough to leave the instrumentation compiled into hot loops — every
/// entry point checks one relaxed atomic flag and returns before
/// touching a string, a lock, or the heap.
///
/// Names form a dotted hierarchy documented in docs/OBSERVABILITY.md,
/// e.g. `opt.candidates`, `simnet.flows`, `cannon.rotations`,
/// `verify.rule.cost.total`.  Counters accumulate, gauges keep the last
/// value; histograms are log2-bucketed (64 fixed buckets) and keep
/// exact count/sum/min/max alongside the bucket counts, so quantile
/// estimates (`Metric::quantile`) come out with a documented error of
/// at most one bucket boundary (a factor of two), clamped into the
/// exact observed [min, max].
///
/// Enable with `metrics_enable(true)` (the CLI's `--stats`/`--metrics`,
/// the bench drivers' `--json`/`--metrics`, the `TCE_METRICS` env
/// capture) or scoped via ScopedMetrics in tests.
///
/// Thread safety: every entry point may be called from any thread.
/// The registry is sharded by name hash (16 shards, each its own mutex
/// and map), so concurrent recorders — e.g. the optimizer's worker
/// threads emitting per-node counts — contend only when hitting the
/// same shard.  Histograms are additionally striped internally (8
/// stripes picked by thread id), so concurrent `observe` calls on the
/// same name do not serialize on one mutex; `metrics_snapshot()` merges
/// the stripes exactly — the merged `count` always equals the sum of
/// the merged bucket counts.  Counter totals are exact under
/// concurrency; a snapshot is per-shard consistent but not an atomic
/// cut across shards.  The disabled path is unchanged: one relaxed
/// atomic load, no locks, no allocation.

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>

namespace tce::obs {

/// True when the registry is recording.  Call sites that must build a
/// dynamic name (e.g. "verify.rule." + id) should check this first so
/// the disabled path allocates nothing.
bool metrics_enabled() noexcept;

/// Turns recording on or off.  Counts recorded while enabled persist
/// until metrics_reset().
void metrics_enable(bool on) noexcept;

/// Drops every recorded value (enabled state is unchanged).
void metrics_reset() noexcept;

/// Adds \p delta to the counter \p name (creating it at zero).
void count(std::string_view name, std::uint64_t delta = 1) noexcept;

/// Sets the gauge \p name to \p value.
void gauge(std::string_view name, double value) noexcept;

/// Records one observation into the histogram \p name.
void observe(std::string_view name, double value) noexcept;

/// Records \p values into the histogram \p name, in order — the same
/// samples, sum and buckets as one observe() per value, for one name
/// lookup and one lock.
void observe_many(std::string_view name,
                  std::span<const double> values) noexcept;

/// One recorded metric.  `kind` discriminates which fields are
/// meaningful: counters use `total`, gauges `last`, histograms
/// `count/sum/min/max/buckets`.
struct Metric {
  enum class Kind { kCounter, kGauge, kHistogram };

  /// Histogram geometry: 64 fixed log2 buckets.  Bucket i covers the
  /// half-open value range [2^(i-33), 2^(i-32)) — about 1.2e-10 up to
  /// 2^31 — with everything below (including zero, negatives and NaN)
  /// clamped into bucket 0 and everything at or above 2^31 clamped
  /// into bucket 63.  One bucket per power of two is the quantile
  /// error bound: an estimate is off by at most one bucket boundary.
  static constexpr int kBuckets = 64;
  static constexpr int kBucketBias = 32;

  Kind kind = Kind::kCounter;
  std::uint64_t total = 0;  // counters
  double last = 0;          // gauges
  std::uint64_t count = 0;  // histograms: exact observation count
  double sum = 0;
  double min = 0;
  double max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  /// The bucket index \p value lands in (see the geometry above).
  static int bucket_index(double value) noexcept;
  /// Inclusive lower / exclusive upper bound of bucket \p i.
  static double bucket_lower(int i) noexcept;
  static double bucket_upper(int i) noexcept;

  /// Quantile estimate for q in [0, 1] (0.5 = p50, 0.99 = p99): the
  /// upper bound of the bucket holding the rank-⌈q·count⌉ observation,
  /// clamped into [min, max].  Exact for point-mass distributions
  /// (the clamp pins it); otherwise within one log2 bucket boundary —
  /// never more than 2x off, and never outside the observed range.
  /// Returns 0 when the histogram is empty.
  double quantile(double q) const noexcept;
};

/// Snapshot of every metric recorded so far, sorted by name.
/// Histogram stripes are merged exactly: for every histogram in the
/// result, `count` equals the sum of `buckets`, even when N threads
/// were observing concurrently (tests/test_obs.cpp pins this).
std::map<std::string, Metric> metrics_snapshot();

/// Value of one counter (0 when absent or not a counter).
std::uint64_t counter_value(std::string_view name);

/// All metrics rendered as a JSON object: counters as integers, gauges
/// as numbers, histograms as {"count","sum","min","max","p50","p90",
/// "p99","buckets"} where buckets is a sparse [[index,count],...] list.
std::string metrics_json();

/// Human-readable table of all metrics, one `name  value` line each.
std::string metrics_table();

/// Enables the registry for a scope; restores the previous enabled
/// state on destruction.  Resets recorded values on entry by default.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(bool reset = true);
  ~ScopedMetrics();
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  bool prev_;
};

}  // namespace tce::obs
