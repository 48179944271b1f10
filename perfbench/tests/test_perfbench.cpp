/// Unit tests of the benchmark's own pieces: the quantile rule, the
/// attempted/failed accounting and stopping rule, the run loops (with a
/// fake workload), the LRU model that predicts every serve reply's
/// cache field (checked against the real serve::PlanCache), the raw
/// JSON helpers and span self times.
///
///   python3 perfbench/run.py --unit-tests

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "json_text.hpp"
#include "runner.hpp"
#include "stats.hpp"
#include "trace.hpp"

#include "tce/common/rng.hpp"
#include "tce/serve/cache.hpp"

namespace perfbench {
namespace {

TEST(Quantile, NearestRankIsCeilOfQTimesN) {
  // Ten samples: p50 is rank ⌈5⌉ = 5, p75 rank ⌈7.5⌉ = 8, p90 rank 9,
  // p91 rank ⌈9.1⌉ = 10.
  const std::vector<double> s = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(quantile(s, 0.5), 5);
  EXPECT_EQ(quantile(s, 0.75), 8);
  EXPECT_EQ(quantile(s, 0.9), 9);
  EXPECT_EQ(quantile(s, 0.91), 10);
  EXPECT_EQ(quantile(s, 1.0), 10);
  EXPECT_EQ(quantile(s, 0.0), 1);  // rank clamps to 1
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2);  // lower middle, not an average
  EXPECT_EQ(quantile({}, 0.5), 0);
}

TEST(Quantile, P75OfHundredLeavesTwentyFiveBeyond) {
  std::vector<double> s;
  for (int i = 1; i <= 100; ++i) s.push_back(i);
  const double p75 = quantile(s, 0.75);
  EXPECT_EQ(p75, 75);
  int beyond = 0;
  for (double v : s) beyond += v > p75 ? 1 : 0;
  EXPECT_EQ(beyond, 25);
}

TEST(Ledger, CountsAttemptedAndFailed) {
  Ledger l;
  l.record("");
  l.record("wrong cost");
  l.record("");
  EXPECT_EQ(l.attempted(), 3u);
  EXPECT_EQ(l.failed(), 1u);
  ASSERT_EQ(l.reasons().size(), 1u);
  EXPECT_EQ(l.reasons()[0], "wrong cost");
  for (int i = 0; i < 20; ++i) l.record("again");
  EXPECT_EQ(l.failed(), 21u);
  EXPECT_EQ(l.reasons().size(), 8u);  // the log keeps the first eight
}

TEST(StopRule, StopsOnlyBetweenWholeRounds) {
  // Rounds of three: 100 operations round up to 102.
  EXPECT_FALSE(should_stop(99, 3, 100, 50, 10, 100));
  EXPECT_FALSE(should_stop(100, 3, 100, 50, 10, 100));  // mid-round
  EXPECT_FALSE(should_stop(101, 3, 100, 50, 10, 100));
  EXPECT_TRUE(should_stop(102, 3, 100, 50, 10, 100));
  // Enough operations but not yet the run length.
  EXPECT_FALSE(should_stop(300, 3, 100, 5, 10, 100));
  // The hard stop overrides the minimum count, still at a round edge.
  EXPECT_TRUE(should_stop(3, 3, 100, 100, 10, 100));
  EXPECT_FALSE(should_stop(4, 3, 100, 100, 10, 100));
}

TEST(StopRule, FailedShareIsTheSameWheneverARunStops) {
  // An operation that fails every time sits at one fixed place in each
  // round, so whole rounds keep failed/attempted constant.
  for (const std::uint64_t stop_at : {102u, 105u, 300u}) {
    Ledger l;
    for (std::uint64_t i = 0; !should_stop(i, 3, 100, i >= stop_at ? 20 : 0,
                                           10, 100);
         ++i) {
      l.record(i % 3 == 2 ? "always fails" : "");
    }
    EXPECT_EQ(l.attempted() % 3, 0u);
    EXPECT_EQ(l.failed() * 3, l.attempted());
  }
}

/// A workload that keeps one output per slot of its block, as the real
/// ones do (batch 1: only the latest output), and records what the run
/// loop calls in which order.
class FakeWorkload final : public Workload {
 public:
  explicit FakeWorkload(std::size_t batch, double op_us = 0)
      : batch_(batch), op_us_(op_us), slots_(batch) {}

  std::size_t batch() const override { return batch_; }
  std::size_t traced_ops() const override { return 6; }
  void setup() override {
    ++setups;
    if (pending_ != 0) ++setups_with_pending_outputs;
  }
  void prepare(std::uint64_t /*i*/) override {}
  void op(Tracer* tracer, std::uint64_t i) override {
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
               .count() < op_us_) {
    }
    slots_[i % batch_] = i;
    traced.push_back(tracer != nullptr);
    ++pending_;
  }
  std::string check(std::uint64_t i, bool corrupt) override {
    --pending_;
    checked.push_back(i);
    if (slots_[i % batch_] != i) return "checked another operation's output";
    return corrupt ? "corrupted" : "";
  }
  void probe(Tracer& /*tracer*/, std::uint64_t i) override {
    probed.push_back(i);
  }
  Finish finish() override { return {}; }
  void layer_metrics(const TraceData& /*data*/, LayerValues& /*out*/) override {
  }

  int setups = 0;
  int setups_with_pending_outputs = 0;
  std::vector<std::uint64_t> checked;
  std::vector<std::uint64_t> probed;
  std::vector<bool> traced;

 private:
  std::size_t batch_;
  double op_us_;
  std::vector<std::uint64_t> slots_;
  int pending_ = 0;
};

TEST(Runner, TracedRunChecksEveryOperationWithItsOwnOutput) {
  for (const std::size_t batch : {1u, 4u}) {
    FakeWorkload w(batch);
    Tracer tracer;
    const RunResult r = run_traced(w, RunOptions{}, tracer);
    EXPECT_EQ(r.ledger.attempted(), 12u) << "batch " << batch;
    EXPECT_EQ(r.ledger.failed(), 0u) << r.ledger.reasons().front();
    EXPECT_EQ(r.timed_ops, 6u);
    ASSERT_EQ(w.checked.size(), 12u);
    for (std::uint64_t i = 0; i < 12; ++i) {
      EXPECT_EQ(w.checked[i], i);
      EXPECT_EQ(w.traced[i], i % 2 == 1);  // every other one traced
    }
    EXPECT_EQ(w.probed, (std::vector<std::uint64_t>{1, 3, 5, 7, 9, 11}));
    EXPECT_EQ(tracer.durations_ms("op").size(), 6u);
  }
}

TEST(Runner, MeasuredRunSpreadsSetUpsBetweenCheckedBlocks) {
  FakeWorkload w(4, 20);
  RunOptions o;
  o.seconds = 0.2;
  const RunResult r = run_measured(w, o);
  EXPECT_EQ(w.setups, static_cast<int>(kSetupRuns));
  EXPECT_EQ(w.setups_with_pending_outputs, 0);
  EXPECT_GE(r.ledger.attempted(), kMinOps);
  EXPECT_EQ(r.ledger.attempted() % 4, 0u);
  EXPECT_EQ(r.ledger.failed(), 0u);
  EXPECT_EQ(r.timed_ops, r.ledger.attempted());
  ASSERT_EQ(w.checked.size(), r.ledger.attempted());
  for (std::uint64_t i = 0; i < w.checked.size(); ++i) {
    ASSERT_EQ(w.checked[i], i);
  }
  EXPECT_GT(r.values.at("op_p75_ms"), 0);
}

TEST(Runner, CorruptFailsExactlyOneOperation) {
  FakeWorkload w(1, 20);
  RunOptions o;
  o.seconds = 0.05;
  o.corrupt = true;
  const RunResult r = run_measured(w, o);
  EXPECT_EQ(r.ledger.failed(), 1u);
  ASSERT_EQ(r.ledger.reasons().size(), 1u);
  EXPECT_EQ(r.ledger.reasons()[0], "corrupted");
}

TEST(LruModel, HitsMissesAndEvictsLeastRecent) {
  LruModel m(2);
  EXPECT_FALSE(m.access(1));
  EXPECT_FALSE(m.access(2));
  EXPECT_TRUE(m.access(1));   // refreshes 1: 2 is now least recent
  EXPECT_FALSE(m.access(3));  // evicts 2
  EXPECT_EQ(m.evictions(), 1u);
  EXPECT_TRUE(m.access(1));
  EXPECT_FALSE(m.access(2));
  EXPECT_EQ(m.size(), 2u);
  LruModel none(0);
  EXPECT_FALSE(none.access(1));
  EXPECT_FALSE(none.access(1));
}

TEST(LruModel, PredictsThePlanCacheOnTheServeAccessPattern) {
  // The server looks a key up and stores it after a miss; the model
  // must give the same answer for every access of a random sequence
  // that overflows the capacity many times.
  tce::serve::PlanCache cache(16);
  LruModel model(16);
  tce::Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const auto id = static_cast<std::uint64_t>(
        rng.uniform_real(0, 1) < 0.9 ? rng.uniform_int(0, 12)
                                     : rng.uniform_int(13, 400));
    const std::string key = "k" + std::to_string(id);
    const bool hit = cache.get(key).has_value();
    if (!hit) cache.put(key, "plan");
    ASSERT_EQ(model.access(id), hit) << "access " << i << " id " << id;
  }
  EXPECT_EQ(model.evictions(), cache.evictions());
  EXPECT_EQ(model.size(), cache.size());
}

TEST(JsonText, RawMemberAndArraySplit) {
  const std::string doc =
      R"({"a":"x}\"y","plan":{"s":[1,{"t":"]"}],"u":2},"z":3})";
  EXPECT_EQ(raw_member(doc, "plan"), R"({"s":[1,{"t":"]"}],"u":2})");
  EXPECT_EQ(raw_member(doc, "z"), "3");
  EXPECT_EQ(raw_member(doc, "a"), R"("x}\"y")");
  EXPECT_THROW(raw_member(doc, "missing"), std::runtime_error);
  EXPECT_THROW(raw_member("[1]", "a"), std::runtime_error);
  const std::vector<std::string> parts = split_array(R"([{"a":[1,2]}, 3 ,"]"])");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], R"({"a":[1,2]})");
  EXPECT_EQ(parts[1], "3");
  EXPECT_EQ(parts[2], R"("]")");
  EXPECT_TRUE(split_array("[]").empty());
}

TEST(JsonText, ZeroesOnlyWallClockFields) {
  EXPECT_EQ(zero_wall_fields(
                R"({"search_wall_s":0.0123,"nodes":[{"wall_s":1e-05,"x":2}],"wall_ss":4})"),
            R"({"search_wall_s":0,"nodes":[{"wall_s":0,"x":2}],"wall_ss":4})");
  std::string doc = R"({"n":{"total_comm_s":2.5},"total_comm_s":9})";
  EXPECT_TRUE(scale_first_number(doc, "total_comm_s", 2));
  EXPECT_EQ(doc, R"({"n":{"total_comm_s":5},"total_comm_s":9})");
  EXPECT_FALSE(scale_first_number(doc, "absent", 2));
}

TEST(Tracer, SelfTimeIsDurationMinusChildren) {
  Tracer t;
  {
    ScopedSpan op(&t, "op", 1);
    { ScopedSpan a(&t, "a", 1); }
    {
      ScopedSpan b(&t, "b", 1);
      { ScopedSpan c(&t, "c", 1); }
    }
  }
  const std::vector<Span>& s = t.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[1].parent, 1u);  // a under op
  EXPECT_EQ(s[3].parent, 3u);  // c under b
  const std::vector<double> self = t.self_ms();
  EXPECT_NEAR(self[0], s[0].duration_ms() - s[1].duration_ms() -
                           s[2].duration_ms(), 1e-9);
  EXPECT_NEAR(self[2], s[2].duration_ms() - s[3].duration_ms(), 1e-9);
  double sum = 0;
  for (double v : self) sum += v;
  EXPECT_NEAR(sum, s[0].duration_ms(), 1e-9);  // self times add up
  EXPECT_NE(t.chrome_json().find("\"ph\":\"X\""), std::string::npos);
  ScopedSpan noop(nullptr, "x", 0);  // a null tracer records nothing
  EXPECT_EQ(t.spans().size(), 4u);
}

}  // namespace
}  // namespace perfbench
