#pragma once
/// \file workload.hpp
/// The contract between the run loop (main.cpp) and each workload.
///
/// A run calls setup(), then runs blocks of batch() operations:
/// prepare(i) → op(i) for each operation of the block, then check(i) for
/// each, until the run length is reached at a whole number of rounds.
/// The measured run calls setup() again between blocks, spread across
/// the run (the median is `setup_s`).  Only op() is timed: it
/// makes the workload's one call into the program's public entry
/// points.  check() hands the output to the checker process
/// (checker.hpp) and returns the failure reason, empty when the output
/// is right; checking a block at a time keeps the checker's work from
/// running between two timed calls.  The traced run calls op() with a
/// tracer, then probe() for the standalone per-layer calls.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checker.hpp"
#include "registry.hpp"
#include "trace.hpp"

namespace perfbench {

/// Workload-level outcome, answered by the checker after the run.
struct Finish {
  std::string error;         ///< Empty when every cross-op property held.
  double plan_comm_s = 0;    ///< Predicted comm of the produced plans.
  double sim_runtime_s = 0;  ///< Simulated run time of those plans.
};

/// Per-layer metric values by name (metrics.hpp lists the names).
using LayerValues = std::map<std::string, double>;

/// What the traced run hands a workload to turn into layer metrics.
struct TraceData {
  const Tracer* tracer = nullptr;
  /// Registry deltas summed over the traced operations only.
  RegistryDelta totals;
  /// Registry delta of each traced operation, in order.
  std::vector<RegistryDelta> per_op;
  std::uint64_t ops = 0;  ///< Traced operations.
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Operations per round; a run attempts whole rounds only.
  virtual std::size_t round() const { return 1; }
  /// Operations timed back to back before their outputs are checked.
  virtual std::size_t batch() const { return 1; }
  /// Traced operations in a traced run (a whole number of rounds).
  virtual std::size_t traced_ops() const = 0;

  /// The program's set-up, ending with one untimed warm-up operation.
  /// May be called again between blocks: it rebuilds the program's
  /// state, and the run goes on with the next operation as before.
  virtual void setup() = 0;
  /// Untimed: makes the inputs of operation \p i.
  virtual void prepare(std::uint64_t i) = 0;
  /// Timed: operation \p i's one call into the program, keeping its
  /// output until check(i).  Throws on program errors.
  virtual void op(Tracer* tracer, std::uint64_t i) = 0;
  /// Untimed: checks operation \p i's output; \p corrupt damages it
  /// first (self-test mode).  Returns the failure reason, empty when
  /// right.
  virtual std::string check(std::uint64_t i, bool corrupt) = 0;
  /// Untimed standalone per-layer calls for traced operation \p i.
  virtual void probe(Tracer& /*tracer*/, std::uint64_t /*i*/) {}
  /// Cross-operation checks and the plan metrics.
  virtual Finish finish() = 0;
  /// Fills the workload's per-layer metrics from the traced run.
  virtual void layer_metrics(const TraceData& data, LayerValues& out) = 0;
};

/// Builds the named workload (plan-cold, search-deep, serve-mix,
/// execute); nullptr for an unknown name.  The checker process is forked
/// inside, before anything heavy is allocated.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& workdir);

}  // namespace perfbench
