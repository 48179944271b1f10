#pragma once
/// \file workloads.hpp
/// Constructors of the four workloads and helpers they share.

#include <cstdint>
#include <memory>
#include <string>

#include "workload.hpp"

namespace perfbench {

std::unique_ptr<Workload> make_plan_cold(std::uint64_t seed,
                                         const std::string& workdir);
std::unique_ptr<Workload> make_search_deep(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed);
std::unique_ptr<Workload> make_execute(std::uint64_t seed);

void write_file(const std::string& path, const std::string& text);
std::string read_file(const std::string& path);

/// Sends "finish" and parses the answer "<plan_comm_s> <sim_runtime_s>".
Finish finish_from(CheckerProcess& checker);

}  // namespace perfbench
