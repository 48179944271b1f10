#include "tce/obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "tce/common/annotations.hpp"
#include "tce/common/json.hpp"

namespace tce::obs {

namespace {

std::atomic<bool> g_enabled{false};

/// One histogram, striped so concurrent observers of the *same* name do
/// not serialize on a single mutex.  Each stripe keeps its own exact
/// count/sum/min/max and bucket counts; a snapshot merges them, and
/// because every observation lands in exactly one stripe (and bumps
/// both that stripe's count and one bucket under the same lock), the
/// merged count always equals the merged bucket sum.
struct Hist {
  static constexpr std::size_t kStripes = 8;

  struct Stripe {
    mutable Mutex mu;
    std::uint64_t count TCE_GUARDED_BY(mu) = 0;
    double sum TCE_GUARDED_BY(mu) = 0;
    double min TCE_GUARDED_BY(mu) = 0;
    double max TCE_GUARDED_BY(mu) = 0;
    std::array<std::uint64_t, Metric::kBuckets> buckets
        TCE_GUARDED_BY(mu){};
  };

  std::array<Stripe, kStripes> stripes;

  /// Stripe for the calling thread (cached per thread; the hash call
  /// allocates nothing).
  static std::size_t stripe_of_thread() noexcept {
    static thread_local const std::size_t idx =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return idx % kStripes;
  }

  void observe(std::span<const double> values) noexcept {
    Stripe& s = stripes[stripe_of_thread()];
    const MutexLock lock(s.mu);
    for (const double value : values) {
      if (s.count == 0 || value < s.min) s.min = value;
      if (s.count == 0 || value > s.max) s.max = value;
      ++s.count;
      s.sum += value;
      ++s.buckets[static_cast<std::size_t>(Metric::bucket_index(value))];
    }
  }

  /// Exact-count merge of every stripe into \p m.
  void merge_into(Metric& m) const {
    for (const Stripe& s : stripes) {
      const MutexLock lock(s.mu);
      if (s.count == 0) continue;
      if (m.count == 0 || s.min < m.min) m.min = s.min;
      if (m.count == 0 || s.max > m.max) m.max = s.max;
      m.count += s.count;
      m.sum += s.sum;
      for (int i = 0; i < Metric::kBuckets; ++i) {
        m.buckets[static_cast<std::size_t>(i)] +=
            s.buckets[static_cast<std::size_t>(i)];
      }
    }
  }
};

/// One registry slot.  Counters and gauges mutate under the owning
/// shard's mutex; a histogram lives behind a stable pointer so the
/// shard lock is only held for the name lookup, and the striped
/// histogram synchronizes its own updates.
struct Entry {
  Metric::Kind kind = Metric::Kind::kCounter;
  std::uint64_t total = 0;
  double last = 0;
  std::unique_ptr<Hist> hist;
};

/// One shard of the registry.  A transparent comparator lets the hot
/// path look up by string_view without materialising a std::string for
/// names that already exist.
struct Shard {
  Mutex mu;
  std::map<std::string, Entry, std::less<>> entries TCE_GUARDED_BY(mu);

  Entry& entry(std::string_view name, Metric::Kind kind)
      TCE_REQUIRES(mu) {
    auto it = entries.find(name);
    if (it == entries.end()) {
      it = entries.emplace(std::string(name), Entry{}).first;
      it->second.kind = kind;
    }
    return it->second;
  }
};

/// The registry is sharded by name hash so concurrent recorders — the
/// parallel DP search emits per-node counts from worker threads — only
/// contend when they touch the same few names, not on one global lock.
/// A name always maps to the same shard, so totals never split and a
/// merged snapshot needs no deduplication.
struct Registry {
  static constexpr std::size_t kShards = 16;
  std::array<Shard, kShards> shards;

  Shard& shard(std::string_view name) {
    return shards[std::hash<std::string_view>{}(name) % kShards];
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

int Metric::bucket_index(double value) noexcept {
  if (!(value > 0)) return 0;  // zero, negatives and NaN underflow
  int exp = 0;
  std::frexp(value, &exp);  // value = m * 2^exp with m in [0.5, 1)
  const int i = exp + kBucketBias;
  return i < 0 ? 0 : i >= kBuckets ? kBuckets - 1 : i;
}

double Metric::bucket_lower(int i) noexcept {
  return std::ldexp(1.0, i - kBucketBias - 1);
}

double Metric::bucket_upper(int i) noexcept {
  return std::ldexp(1.0, i - kBucketBias);
}

double Metric::quantile(double q) const noexcept {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t cum = 0;
  int hit = kBuckets - 1;
  for (int i = 0; i < kBuckets; ++i) {
    cum += buckets[static_cast<std::size_t>(i)];
    if (cum >= rank) {
      hit = i;
      break;
    }
  }
  return std::clamp(bucket_upper(hit), min, max);
}

bool metrics_enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

void metrics_enable(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

void metrics_reset() noexcept {
  for (Shard& s : registry().shards) {
    const MutexLock lock(s.mu);
    s.entries.clear();
  }
}

void count(std::string_view name, std::uint64_t delta) noexcept {
  if (!metrics_enabled()) return;
  Shard& s = registry().shard(name);
  const MutexLock lock(s.mu);
  s.entry(name, Metric::Kind::kCounter).total += delta;
}

void gauge(std::string_view name, double value) noexcept {
  if (!metrics_enabled()) return;
  Shard& s = registry().shard(name);
  const MutexLock lock(s.mu);
  s.entry(name, Metric::Kind::kGauge).last = value;
}

void observe(std::string_view name, double value) noexcept {
  observe_many(name, std::span<const double>(&value, 1));
}

void observe_many(std::string_view name,
                  std::span<const double> values) noexcept {
  if (!metrics_enabled() || values.empty()) return;
  Shard& s = registry().shard(name);
  Hist* h = nullptr;
  {
    // The shard lock covers only the name lookup; the update itself
    // lands on the histogram's per-thread stripe.  Map nodes are
    // pointer-stable, so the Hist outlives the lock (histograms are
    // only destroyed by metrics_reset, which reporting-phase callers
    // never overlap with recording).
    const MutexLock lock(s.mu);
    Entry& e = s.entry(name, Metric::Kind::kHistogram);
    if (!e.hist) e.hist = std::make_unique<Hist>();
    h = e.hist.get();
  }
  h->observe(values);
}

std::map<std::string, Metric> metrics_snapshot() {
  // The merged map is sorted by name (std::map), as documented; each
  // shard is copied under its own lock, and histogram stripes are
  // merged exactly (count == sum of buckets).  The snapshot is not a
  // single atomic cut across shards — fine for reporting, which only
  // runs after the recording phase has quiesced.
  std::map<std::string, Metric> out;
  for (Shard& s : registry().shards) {
    const MutexLock lock(s.mu);
    for (const auto& [name, e] : s.entries) {
      Metric m;
      m.kind = e.kind;
      m.total = e.total;
      m.last = e.last;
      if (e.hist) e.hist->merge_into(m);
      out.emplace(name, m);
    }
  }
  return out;
}

std::uint64_t counter_value(std::string_view name) {
  Shard& s = registry().shard(name);
  const MutexLock lock(s.mu);
  auto it = s.entries.find(name);
  if (it == s.entries.end() || it->second.kind != Metric::Kind::kCounter) {
    return 0;
  }
  return it->second.total;
}

std::string metrics_json() {
  json::ObjectWriter out;
  for (const auto& [name, m] : metrics_snapshot()) {
    switch (m.kind) {
      case Metric::Kind::kCounter:
        out.field(name, m.total);
        break;
      case Metric::Kind::kGauge:
        out.field(name, m.last);
        break;
      case Metric::Kind::kHistogram: {
        json::ArrayWriter buckets;
        for (int i = 0; i < Metric::kBuckets; ++i) {
          const std::uint64_t c = m.buckets[static_cast<std::size_t>(i)];
          if (c == 0) continue;
          buckets.element(json::ArrayWriter()
                              .element(std::to_string(i))
                              .element(std::to_string(c))
                              .str());
        }
        out.raw(name, json::ObjectWriter()
                          .field("count", m.count)
                          .field("sum", m.sum)
                          .field("min", m.min)
                          .field("max", m.max)
                          .field("p50", m.quantile(0.5))
                          .field("p90", m.quantile(0.9))
                          .field("p99", m.quantile(0.99))
                          .raw("buckets", buckets.str())
                          .str());
        break;
      }
    }
  }
  return out.str();
}

std::string metrics_table() {
  std::string out;
  for (const auto& [name, m] : metrics_snapshot()) {
    out += "  " + name;
    out.append(name.size() < 40 ? 40 - name.size() : 1, ' ');
    switch (m.kind) {
      case Metric::Kind::kCounter:
        out += std::to_string(m.total);
        break;
      case Metric::Kind::kGauge:
        out += json::number(m.last);
        break;
      case Metric::Kind::kHistogram:
        out += "n=" + std::to_string(m.count) +
               " sum=" + json::number(m.sum) +
               " min=" + json::number(m.min) +
               " max=" + json::number(m.max) +
               " p50=" + json::number(m.quantile(0.5)) +
               " p99=" + json::number(m.quantile(0.99));
        break;
    }
    out += "\n";
  }
  return out;
}

ScopedMetrics::ScopedMetrics(bool reset) : prev_(metrics_enabled()) {
  if (reset) metrics_reset();
  metrics_enable(true);
}

ScopedMetrics::~ScopedMetrics() { metrics_enable(prev_); }

}  // namespace tce::obs
