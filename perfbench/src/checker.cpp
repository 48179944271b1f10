#include "checker.hpp"

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>

#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {
namespace {

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, data, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    data += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Frame: 8-byte native length, then the bytes.
bool send_frame(int fd, const std::string& payload) {
  const std::uint64_t n = payload.size();
  return write_all(fd, reinterpret_cast<const char*>(&n), sizeof n) &&
         write_all(fd, payload.data(), payload.size());
}

bool recv_frame(int fd, std::string* payload) {
  std::uint64_t n = 0;
  if (!read_all(fd, reinterpret_cast<char*>(&n), sizeof n)) return false;
  if (n > (std::uint64_t{1} << 32)) return false;
  payload->resize(n);
  return read_all(fd, payload->data(), n);
}

[[noreturn]] void serve(int in, int out,
                        const std::function<std::unique_ptr<CheckLogic>()>&
                            make) {
  int code = 0;
  try {
    const std::unique_ptr<CheckLogic> logic = make();
    // Ready: the parent waits for this before it starts any timing.
    if (!send_frame(out, "r")) ::_exit(1);
    std::string request;
    while (recv_frame(in, &request)) {
      Verdict v;
      try {
        v = logic->handle(request);
      } catch (const std::exception& e) {
        v = Verdict::fail(std::string("check raised: ") + e.what());
      }
      const std::string reply = (v.ok ? "o" : "f") + v.text;
      if (!send_frame(out, reply)) break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench checker: %s\n", e.what());
    code = 1;
  }
  ::_exit(code);
}

}  // namespace

CheckerProcess::CheckerProcess(
    const std::function<std::unique_ptr<CheckLogic>()>& make) {
  int down[2];
  int up[2];
  if (::pipe(down) != 0) throw std::runtime_error("pipe failed");
  if (::pipe(up) != 0) {
    ::close(down[0]);
    ::close(down[1]);
    throw std::runtime_error("pipe failed");
  }
  // A dead child must surface as a failed write, not kill the parent.
  std::signal(SIGPIPE, SIG_IGN);
  std::fflush(nullptr);
  pid_ = ::fork();
  if (pid_ < 0) {
    for (int fd : {down[0], down[1], up[0], up[1]}) ::close(fd);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    ::close(down[1]);
    ::close(up[0]);
    serve(down[0], up[1], make);
  }
  ::close(down[0]);
  ::close(up[1]);
  to_child_ = down[1];
  from_child_ = up[0];
  std::string ready;
  if (!recv_frame(from_child_, &ready) || ready != "r") {
    ::close(to_child_);
    ::close(from_child_);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    throw std::runtime_error("the checker process failed to start");
  }
}

CheckerProcess::~CheckerProcess() {
  ::close(to_child_);
  ::close(from_child_);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

Verdict CheckerProcess::call(const std::string& request) {
  std::string reply;
  if (!send_frame(to_child_, request) || !recv_frame(from_child_, &reply) ||
      reply.empty()) {
    throw std::runtime_error("the checker process exited unexpectedly");
  }
  return {reply[0] == 'o', reply.substr(1)};
}

}  // namespace perfbench
