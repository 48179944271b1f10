#pragma once
/// \file trace.hpp
/// In-memory spans for the traced run.  A span has a name, start, end,
/// parent and operation id; spans are kept in memory and written out
/// once, as Chrome trace-event JSON (the format `tcemin plan --trace`
/// writes, so both open in chrome://tracing or ui.perfetto.dev).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t op = 0;      ///< Operation id the span belongs to.
  std::size_t parent = 0;    ///< Index + 1 of the parent span; 0 = root.
  double start_us = 0;       ///< Since the tracer was created.
  double end_us = 0;
  double duration_ms() const { return (end_us - start_us) / 1e3; }
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span under the innermost open one.
  void begin(const std::string& name, std::uint64_t op);
  /// Closes the innermost open span.
  void end();

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, by index: its duration minus the
  /// durations of its direct children (children never overlap: the
  /// benchmark is single-threaded).
  std::vector<double> self_ms() const;

  /// Durations in ms of every span named \p name, in start order.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Self times in ms of every span named \p name, in start order.
  std::vector<double> self_times_ms(const std::string& name) const;

  /// Chrome trace-event document: one complete ("ph":"X") event per
  /// span on pid 1, with the operation id and parent in "args".
  std::string chrome_json() const;

 private:
  double now_us() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null tracer makes it a no-op, so the same code serves
/// the traced and the untraced path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::uint64_t op)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(name, op);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
