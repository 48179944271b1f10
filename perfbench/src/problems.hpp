#pragma once
/// \file problems.hpp
/// The exact inputs of every workload (README.md lists them too).

#include <cstdint>
#include <string>

#include "tce/common/rng.hpp"

namespace perfbench {

/// examples/paper.tce: the paper's §4 four-index transformation.
extern const char* const kPaperProgram;
/// examples/forest.tce: a two-output program planned as a forest.
extern const char* const kForestProgram;
/// The four-contraction chain of search-deep (ROADMAP's five-contraction
/// chain without its last statement).
extern const char* const kChainProgram;
/// paper.tce scaled by 1/8 for execute: a..d = 60, e, f = 8, i..l = 4.
extern const char* const kExecuteProgram;

/// serve-mix problem space.  Problem \p id (0 ≤ id < kServeProblems) is
/// a three-statement chain whose extents are the mixed-radix digits of
/// id, so distinct ids are distinct canonical problems.  Ids below
/// kServeHot form the hot set; misses take the next id above it.
constexpr std::uint64_t kServeProblems = 65536;
constexpr std::uint64_t kServeHot = 100;

/// Problem \p id spelled with the fixed names (a, b, c, e, f / T, U, S,
/// X, Y, Z, W) and declarations in order.
std::string serve_program(std::uint64_t id);
/// Problem \p id under a fresh renaming drawn from \p rng: every index
/// and tensor gets a new random name, and the declarations are shuffled.
std::string serve_program_renamed(std::uint64_t id, tce::Rng& rng);

}  // namespace perfbench
