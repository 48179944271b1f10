#pragma once
/// \file checker.hpp
/// The checker process.  Every output check runs in a child process
/// forked before the workload's set-up, which answers check requests
/// synchronously over a pipe pair.  What the checks allocate (an
/// exhaustive brute-force search, a reference loop-nest evaluation, a
/// second characterized model) therefore never counts toward the
/// workload process's peak resident set, and while one side works the
/// other waits, so the run stays on one thread of execution.

#include <functional>
#include <memory>
#include <string>

#include <sys/types.h>

namespace perfbench {

/// A check's answer: ok, or a failure with its reason.  Successful
/// answers may carry a payload (the workload-level metrics).
struct Verdict {
  bool ok = true;
  std::string text;

  static Verdict pass(std::string payload = {}) {
    return {true, std::move(payload)};
  }
  static Verdict fail(std::string reason) { return {false, std::move(reason)}; }
};

/// Turns one request into a verdict.  Lives only in the child.
class CheckLogic {
 public:
  virtual ~CheckLogic() = default;
  virtual Verdict handle(const std::string& request) = 0;
};

class CheckerProcess {
 public:
  /// Forks the child, which builds its logic with \p make and serves
  /// requests until the parent closes the pipe.  Returns once the child
  /// has built its logic, so that work overlaps no timing; throws
  /// std::runtime_error when it could not.
  explicit CheckerProcess(
      const std::function<std::unique_ptr<CheckLogic>()>& make);
  /// Closes the request pipe and waits for the child to exit.
  ~CheckerProcess();
  CheckerProcess(const CheckerProcess&) = delete;
  CheckerProcess& operator=(const CheckerProcess&) = delete;

  /// Sends \p request and blocks for the verdict.  Throws
  /// std::runtime_error when the child died.  An exception the logic
  /// throws comes back as a failed verdict carrying its message.
  Verdict call(const std::string& request);

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

}  // namespace perfbench
