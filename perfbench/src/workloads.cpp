#include "workloads.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& workdir) {
  if (name == "plan-cold") return make_plan_cold(seed, workdir);
  if (name == "search-deep") return make_search_deep(seed);
  if (name == "serve-mix") return make_serve_mix(seed);
  if (name == "execute") return make_execute(seed);
  return nullptr;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Finish finish_from(CheckerProcess& checker) {
  const Verdict v = checker.call("finish");
  Finish f;
  if (!v.ok) {
    f.error = v.text;
    return f;
  }
  std::istringstream in(v.text);
  if (!(in >> f.plan_comm_s >> f.sim_runtime_s)) {
    f.error = "malformed finish answer: " + v.text;
  }
  return f;
}

}  // namespace perfbench
