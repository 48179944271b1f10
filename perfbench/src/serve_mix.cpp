/// serve-mix: the planner daemon's request path, in process, as a closed
/// loop with one client.  Set-up plans a hot set of 100 problems; each
/// timed Server::handle request is, with probability 0.96, a hot problem
/// under a fresh seeded renaming (a cache hit), otherwise a never-seen
/// problem (a compulsory miss, plus an LRU eviction once the 256-entry
/// cache is full).  Misses near 4% keep p75 inside the hit mode while
/// misses still take about a third of the time in handle().

#include <optional>

#include "json_text.hpp"
#include "metrics.hpp"
#include "plan_checks.hpp"
#include "problems.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#include "tce/common/json.hpp"
#include "tce/core/optimizer.hpp"
#include "tce/core/plan_json.hpp"
#include "tce/core/simulate.hpp"
#include "tce/costmodel/characterization.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/expr/parser.hpp"
#include "tce/serve/canonical.hpp"
#include "tce/serve/server.hpp"

namespace perfbench {
namespace {

using namespace tce;

constexpr std::uint32_t kProcs = 16;
constexpr std::uint32_t kPerNode = 2;  // the server's default
constexpr std::uint64_t kLimit = 64'000'000;
constexpr std::size_t kCapacity = 256;
constexpr double kHotShare = 0.96;
/// Requests handled back to back before their replies are checked.  The
/// checker's work between two blocks leaves the caches cold: the first
/// request of a block takes about twice as long as the others, and the
/// next few are slower too.  With 32-request blocks those requests were
/// about a tenth of all, where the 90th percentile fell, so it moved
/// with where the scheduler put the two processes; at 256 they are a
/// few in a thousand.
constexpr std::size_t kBatch = 256;
/// Seed of the warm-up request's renaming (fixed: set-up never varies).
constexpr std::uint64_t kWarmupSeed = 0x5e7u;

std::string make_request(const std::string& id, const std::string& program) {
  return json::ObjectWriter()
      .field("schema", "tce-serve/1")
      .field("op", "plan")
      .field("id", id)
      .field("program", program)
      .field("procs", std::uint64_t{kProcs})
      .field("mem_limit_bytes", kLimit)
      .str();
}

/// Checker side: an LRU model over problem ids predicts every reply's
/// cache field; every plan is re-read against the request's own tree,
/// verified, and compared with a direct optimize() of that problem.
class ServeMixCheck final : public CheckLogic {
 public:
  ServeMixCheck()
      : grid_(ProcGrid::make(kProcs, kPerNode)),
        net_(net_spec()),
        model_(characterize(net_, grid_)),
        lru_(kCapacity) {}

  Verdict handle(const std::string& request) override {
    if (request == "finish") return finish();
    if (request == "new-server") {
      // The workload built a fresh server: its cache starts empty.
      lru_ = LruModel(kCapacity);
      return Verdict::pass();
    }
    // "req <id>\n<request>\0<reply>"
    const std::size_t nl = request.find('\n');
    const std::uint64_t id = std::stoull(request.substr(4, nl - 4));
    const std::size_t sep = request.find('\0', nl + 1);
    return check(id, request.substr(nl + 1, sep - nl - 1),
                 request.substr(sep + 1));
  }

 private:
  struct Expected {
    double comm_s = 0;  ///< Direct optimize() of the problem.
    double reply_comm_s = 0;
    double sim_runtime_s = 0;
  };

  ClusterSpec net_spec() const {
    ClusterSpec spec = ClusterSpec::itanium2003(grid_.nodes());
    spec.procs_per_node = kPerNode;
    return spec;
  }

  Verdict check(std::uint64_t id, const std::string& request,
                const std::string& reply) {
    const bool expect_hit = lru_.access(id);
    const json::Value doc = json::parse(reply);
    if (!doc.at("ok").boolean) return Verdict::fail("reply not ok: " + reply);
    const std::string& cache = doc.at("cache").string;
    if (cache != (expect_hit ? "hit" : "miss")) {
      return Verdict::fail("problem " + std::to_string(id) + ": reply says " +
                           cache + ", the LRU model says " +
                           (expect_hit ? "hit" : "miss"));
    }
    const std::string program = json::parse(request).at("program").string;
    const ContractionTree tree = ContractionTree::from_sequence(
        to_formula_sequence(parse_program(program)));
    const OptimizedPlan plan =
        plan_from_json(raw_member(reply, "plan"), tree);
    const std::string what = "problem " + std::to_string(id);
    if (std::string r = check_plan(tree, model_, plan, kLimit, what);
        !r.empty()) {
      return Verdict::fail(r);
    }
    auto it = expected_.find(id);
    if (it == expected_.end()) {
      OptimizerConfig cfg;
      cfg.mem_limit_node_bytes = kLimit;
      cfg.threads = 1;
      Expected e;
      e.comm_s = optimize(tree, model_, cfg).total_comm_s;
      e.reply_comm_s = plan.total_comm_s;
      e.sim_runtime_s = simulate_plan_comm(net_, grid_, tree, plan) +
                        plan.total_compute_s;
      it = expected_.emplace(id, e).first;
    }
    if (rel_diff(plan.total_comm_s, it->second.comm_s) > 1e-9) {
      return Verdict::fail(what + ": reply cost " + num(plan.total_comm_s) +
                           " s, direct optimize() " +
                           num(it->second.comm_s) + " s");
    }
    return Verdict::pass();
  }

  Verdict finish() {
    double comm = 0;
    double runtime = 0;
    for (std::uint64_t id = 0; id < kServeHot; ++id) {
      const auto it = expected_.find(id);
      if (it == expected_.end()) {
        return Verdict::fail("hot problem " + std::to_string(id) +
                             " was never checked");
      }
      comm += it->second.reply_comm_s;
      runtime += it->second.sim_runtime_s;
    }
    return Verdict::pass(num(comm) + " " + num(runtime));
  }

  ProcGrid grid_;
  Network net_;
  CharacterizedModel model_;
  LruModel lru_;
  std::map<std::uint64_t, Expected> expected_;
};

class ServeMix final : public Workload {
 public:
  explicit ServeMix(std::uint64_t seed)
      : checker_([] { return std::make_unique<ServeMixCheck>(); }),
        schedule_(seed) {}

  std::size_t batch() const override { return kBatch; }
  std::size_t traced_ops() const override { return 4000; }

  void setup() override {
    serve::ServeOptions options;
    options.cache_capacity = kCapacity;
    options.threads = 1;
    server_.emplace(options);
    setup_log_.clear();
    for (std::uint64_t id = 0; id < kServeHot; ++id) {
      const std::string req =
          make_request("h" + std::to_string(id), serve_program(id));
      setup_log_.push_back({id, req, server_->handle(req)});
    }
    Rng rng(kWarmupSeed);
    const std::string warm =
        make_request("w", serve_program_renamed(0, rng));
    setup_log_.push_back({0, warm, server_->handle(warm)});
    setup_sent_ = false;
  }

  void prepare(std::uint64_t i) override {
    if (!setup_sent_) {
      // Set-up replies are checked (and seed the checker's LRU model)
      // once set-up timing is over.  A set-up repeated mid-run builds a
      // fresh server but leaves the request schedule where it was.
      if (const Verdict v = checker_.call("new-server");
          !v.ok && setup_error_.empty()) {
        setup_error_ = "set-up: " + v.text;
      }
      for (const Exchange& x : setup_log_) {
        const Verdict v = checker_.call(frame(x.id, x.request, x.reply));
        if (!v.ok && setup_error_.empty()) setup_error_ = "set-up: " + v.text;
      }
      setup_log_.clear();
      setup_sent_ = true;
    }
    // The reply string handle() built has about twice the capacity it
    // needs; trimming the previous one keeps a block's held replies from
    // doubling the peak resident set.
    if (i % kBatch != 0) slots_[(i - 1) % kBatch].reply.shrink_to_fit();
    Slot& s = slots_[i % kBatch];
    if (schedule_.uniform_real(0, 1) < kHotShare) {
      s.id = static_cast<std::uint64_t>(schedule_.uniform_int(
          0, static_cast<std::int64_t>(kServeHot) - 1));
    } else {
      // Past the last problem the misses wrap around; a run would need
      // over a million requests to get there.
      s.id = next_miss_++;
      if (next_miss_ == kServeProblems) next_miss_ = kServeHot;
    }
    s.program = serve_program_renamed(s.id, schedule_);
    s.request = make_request("q" + std::to_string(i), s.program);
  }

  void op(Tracer* tracer, std::uint64_t i) override {
    Slot& slot = slots_[i % kBatch];
    if (tracer == nullptr) {
      slot.reply = server_->handle(slot.request);
      return;
    }
    const serve::PlanCache& cache = server_->cache();
    const std::uint64_t h = cache.hits();
    const std::uint64_t m = cache.misses();
    const std::uint64_t e = cache.evictions();
    {
      ScopedSpan s(tracer, "serve.handle", i);
      slot.reply = server_->handle(slot.request);
    }
    hits_ += cache.hits() - h;
    misses_ += cache.misses() - m;
    evictions_ += cache.evictions() - e;
    traced_hit_.push_back(cache.hits() > h);
  }

  std::string check(std::uint64_t i, bool corrupt) override {
    const Slot& slot = slots_[i % kBatch];
    std::string reply = slot.reply;
    if (corrupt) {
      const bool hit = reply.find("\"cache\":\"hit\"") != std::string::npos;
      const std::string from = hit ? "\"cache\":\"hit\"" : "\"cache\":\"miss\"";
      const std::string to = hit ? "\"cache\":\"miss\"" : "\"cache\":\"hit\"";
      reply.replace(reply.find(from), from.size(), to);
    }
    const Verdict v = checker_.call(frame(slot.id, slot.request, reply));
    return v.ok ? std::string() : v.text;
  }

  void probe(Tracer& tracer, std::uint64_t i) override {
    std::optional<ParsedProgram> parsed;
    {
      ScopedSpan s(&tracer, "expr.parse", i);
      parsed.emplace(parse_program(slots_[i % kBatch].program));
    }
    ScopedSpan s(&tracer, "serve.canonicalize", i);
    (void)serve::canonicalize_program(*parsed);
  }

  Finish finish() override {
    Finish f = finish_from(checker_);
    if (f.error.empty()) f.error = setup_error_;
    return f;
  }

  void layer_metrics(const TraceData& data, LayerValues& out) override {
    const Tracer& t = *data.tracer;
    const std::vector<double> handle_ms = t.durations_ms("serve.handle");
    std::vector<double> hit_ms, miss_ms;
    for (std::size_t k = 0; k < handle_ms.size(); ++k) {
      (traced_hit_[k] ? hit_ms : miss_ms).push_back(handle_ms[k]);
    }
    out["serve.hit_ms"] = median(hit_ms);
    out["serve.miss_ms"] = median(miss_ms);
    out["serve.canonicalize_ms"] = median_span_ms(t, "serve.canonicalize");
    out["expr.parse_ms"] = median_span_ms(t, "expr.parse");
    out["serve.cache_hits"] = static_cast<double>(hits_);
    out["serve.cache_misses"] = static_cast<double>(misses_);
    out["serve.cache_evictions"] = static_cast<double>(evictions_);
    if (hits_ + misses_ > 0) {
      out["serve.hit_ratio"] = static_cast<double>(hits_) /
                               static_cast<double>(hits_ + misses_);
    }
    // Searches run inside handle() on misses only: their time is the
    // mean of the optimizer's own search-time histogram.
    const std::uint64_t searches = data.totals.count("opt.search_wall_s");
    const double search_ms = data.totals.sum("opt.search_wall_s") * 1e3;
    if (searches > 0) {
      out["core.optimize_ms"] = search_ms / static_cast<double>(searches);
    }
    fill_core_counters(data, search_ms, out);
  }

 private:
  struct Exchange {
    std::uint64_t id;
    std::string request;
    std::string reply;
  };
  /// One request of the current block.
  struct Slot {
    std::uint64_t id = 0;
    std::string program;
    std::string request;
    std::string reply;
  };

  static std::string frame(std::uint64_t id, const std::string& request,
                           const std::string& reply) {
    std::string f = "req " + std::to_string(id) + "\n" + request;
    f += '\0';
    return f + reply;
  }

  CheckerProcess checker_;
  Rng schedule_;
  std::optional<serve::Server> server_;
  std::vector<Exchange> setup_log_;
  bool setup_sent_ = false;
  std::string setup_error_;
  std::uint64_t next_miss_ = kServeHot;
  std::vector<Slot> slots_ = std::vector<Slot>(kBatch);
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::vector<bool> traced_hit_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed) {
  return std::make_unique<ServeMix>(seed);
}

}  // namespace perfbench
