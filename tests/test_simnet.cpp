// Tests for tce/simnet: max–min fair allocation and the flow-level
// network simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <random>

#include "tce/common/checked.hpp"
#include "tce/costmodel/characterize.hpp"
#include "tce/simnet/maxmin.hpp"
#include "tce/simnet/network.hpp"

namespace tce {
namespace {

// ------------------------------------------------------ references
//
// The production solver and simulator work over flat, reused storage;
// these are the straightforward vector-of-vectors forms they replaced.
// Both perform the same floating-point operations in the same order, so
// the tests below compare results with EXPECT_EQ, not a tolerance.

std::vector<double> reference_maxmin(const std::vector<ResourcePath>& paths,
                                     const std::vector<double>& capacities,
                                     double unbounded_rate = 1e30) {
  const std::size_t nf = paths.size();
  const std::size_t nr = capacities.size();
  std::vector<double> rate(nf, 0.0);
  std::vector<bool> frozen(nf, false);
  std::vector<double> remaining(capacities);
  std::vector<std::uint32_t> load(nr, 0);
  for (const auto& p : paths) {
    for (std::uint32_t r : p) ++load[r];
  }
  std::size_t active = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    if (paths[f].empty()) {
      rate[f] = unbounded_rate;
      frozen[f] = true;
    } else {
      ++active;
    }
  }
  double level = 0.0;
  while (active > 0) {
    double next_level = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < nr; ++r) {
      if (load[r] == 0) continue;
      next_level = std::min(next_level, level + remaining[r] / load[r]);
    }
    const double delta = next_level - level;
    for (std::size_t r = 0; r < nr; ++r) {
      if (load[r] != 0) remaining[r] -= delta * load[r];
    }
    level = next_level;
    const double eps = 1e-9 * level + 1e-18;
    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      bool saturated = false;
      for (std::uint32_t r : paths[f]) {
        if (remaining[r] <= eps * load[r] + 1e-30) {
          saturated = true;
          break;
        }
      }
      if (saturated) {
        frozen[f] = true;
        rate[f] = level;
        --active;
        for (std::uint32_t r : paths[f]) --load[r];
      }
    }
  }
  return rate;
}

std::vector<double> reference_finish_times(const ClusterSpec& spec,
                                           const std::vector<Flow>& flows) {
  const std::uint32_t n = spec.nodes;
  std::vector<double> capacities(3 * n, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    capacities[i] = spec.nic_bw;
    capacities[n + i] = spec.nic_bw;
    capacities[2 * n + i] = spec.mem_bw;
  }
  const auto bisection_id = static_cast<std::uint32_t>(capacities.size());
  if (spec.bisection_bw > 0) capacities.push_back(spec.bisection_bw);

  struct Active {
    std::size_t id;
    double remaining;
    ResourcePath path;
  };
  std::vector<double> finish(flows.size(), 0.0);
  std::vector<Active> active;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (flows[f].bytes == 0) {
      finish[f] = spec.latency_s;
      continue;
    }
    const std::uint32_t sn = spec.node_of(flows[f].src);
    const std::uint32_t dn = spec.node_of(flows[f].dst);
    Active a{f, static_cast<double>(flows[f].bytes), {}};
    if (sn == dn) {
      a.path = {2 * n + sn};
    } else {
      a.path = {sn, n + dn};
      if (spec.bisection_bw > 0) a.path.push_back(bisection_id);
    }
    active.push_back(std::move(a));
  }
  double now = 0.0;
  while (!active.empty()) {
    std::vector<ResourcePath> paths;
    for (const auto& a : active) paths.push_back(a.path);
    const std::vector<double> rates = reference_maxmin(paths, capacities);
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < active.size(); ++i) {
      dt = std::min(dt, active[i].remaining / rates[i]);
    }
    now += dt;
    std::vector<Active> still;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const double left = active[i].remaining - rates[i] * dt;
      if (left <= 1e-6) {
        finish[active[i].id] = spec.latency_s + now;
      } else {
        active[i].remaining = left;
        still.push_back(std::move(active[i]));
      }
    }
    active = std::move(still);
  }
  return finish;
}

/// Random paths of 1–3 distinct resources over \p nr resources.
std::vector<ResourcePath> random_paths(std::mt19937_64& rng, std::size_t nf,
                                       std::size_t nr) {
  std::vector<ResourcePath> paths(nf);
  for (auto& p : paths) {
    const std::size_t len = 1 + rng() % 3;
    for (std::size_t i = 0; i < len; ++i) {
      const auto r = static_cast<std::uint32_t>(rng() % nr);
      if (std::find(p.begin(), p.end(), r) == p.end()) p.push_back(r);
    }
  }
  return paths;
}

// ------------------------------------------------------------- maxmin

TEST(MaxMin, SingleFlowGetsFullCapacity) {
  auto rates = maxmin_fair_rates({{0}}, {10.0});
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_NEAR(rates[0], 10.0, 1e-9);
}

TEST(MaxMin, EqualShareOnOneResource) {
  auto rates = maxmin_fair_rates({{0}, {0}, {0}, {0}}, {8.0});
  for (double r : rates) EXPECT_NEAR(r, 2.0, 1e-9);
}

TEST(MaxMin, ClassicTandemExample) {
  // Flow A crosses both links; flow B crosses link 0; flow C crosses
  // link 1.  Capacities 1 each: A is bottlenecked at 0.5 on both; B and C
  // then fill their links to 0.5.  With capacities {1, 2}: A=0.5, B=0.5,
  // C=1.5.
  auto rates = maxmin_fair_rates({{0, 1}, {0}, {1}}, {1.0, 2.0});
  EXPECT_NEAR(rates[0], 0.5, 1e-9);
  EXPECT_NEAR(rates[1], 0.5, 1e-9);
  EXPECT_NEAR(rates[2], 1.5, 1e-9);
}

TEST(MaxMin, UnboundedFlowGetsSentinelRate) {
  auto rates = maxmin_fair_rates({{}, {0}}, {4.0});
  EXPECT_GT(rates[0], 1e29);
  EXPECT_NEAR(rates[1], 4.0, 1e-9);
}

// Property sweep: random flow/resource topologies satisfy (a) capacity
// conservation, (b) every flow is bottlenecked (its rate cannot be raised
// without exceeding some saturated resource's capacity).
class MaxMinProperty : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinProperty, FairnessInvariants) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t nr = 2 + rng() % 6;
  const std::size_t nf = 1 + rng() % 12;
  std::vector<double> caps(nr);
  for (auto& c : caps) c = 1.0 + static_cast<double>(rng() % 100);
  std::vector<ResourcePath> paths(nf);
  for (auto& p : paths) {
    const std::size_t len = 1 + rng() % 3;
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint32_t r = static_cast<std::uint32_t>(rng() % nr);
      bool dup = false;
      for (std::uint32_t q : p) dup = dup || (q == r);
      if (!dup) p.push_back(r);
    }
  }

  const auto rates = maxmin_fair_rates(paths, caps);

  // (a) conservation.
  std::vector<double> used(nr, 0.0);
  for (std::size_t f = 0; f < nf; ++f) {
    for (std::uint32_t r : paths[f]) used[r] += rates[f];
  }
  for (std::size_t r = 0; r < nr; ++r) {
    EXPECT_LE(used[r], caps[r] * (1 + 1e-6));
  }

  // (b) bottleneck property: every flow crosses a saturated resource on
  // which it has the (weakly) largest rate.
  for (std::size_t f = 0; f < nf; ++f) {
    bool bottlenecked = false;
    for (std::uint32_t r : paths[f]) {
      if (used[r] < caps[r] * (1 - 1e-6)) continue;  // not saturated
      double max_rate_here = 0.0;
      for (std::size_t g = 0; g < nf; ++g) {
        for (std::uint32_t q : paths[g]) {
          if (q == r) max_rate_here = std::max(max_rate_here, rates[g]);
        }
      }
      if (rates[f] >= max_rate_here * (1 - 1e-6)) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked) << "flow " << f << " is not bottlenecked";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, MaxMinProperty,
                         ::testing::Range(0, 25));

// Bit identity against the reference solver: random topologies with
// ties (small integer capacities), empty paths, and resources no flow
// crosses.
TEST(MaxMin, RatesMatchTheReferenceSolverExactly) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t nr = 1 + rng() % 40;
    const std::size_t nf = rng() % 120;
    std::vector<double> caps(nr);
    for (auto& c : caps) {
      c = seed % 2 == 0 ? 1.0 + static_cast<double>(rng() % 8)
                        : 0.1 + static_cast<double>(rng() % 100000) / 7.0;
    }
    std::vector<ResourcePath> paths = random_paths(rng, nf, nr);
    for (auto& p : paths) {
      if (rng() % 16 == 0) p.clear();
    }
    const auto want = reference_maxmin(paths, caps);
    const auto got = maxmin_fair_rates(paths, caps);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t f = 0; f < nf; ++f) {
      EXPECT_EQ(got[f], want[f]) << "seed " << seed << " flow " << f;
    }
  }
}

// One solver reused across calls of shrinking subsets and changing
// resource counts, as the simulator drives it round after round.
TEST(MaxMin, ReusedSolverMatchesFreshReferenceOnSubsets) {
  MaxMinSolver solver;
  std::mt19937_64 rng(7);
  for (int call = 0; call < 60; ++call) {
    const std::size_t nr = 1 + rng() % 30;
    const std::size_t nf = 1 + rng() % 80;
    std::vector<double> caps(nr);
    for (auto& c : caps) c = 1.0 + static_cast<double>(rng() % 50);
    const std::vector<ResourcePath> all = random_paths(rng, nf, nr);
    PathTable table;
    for (const auto& p : all) table.add(p);
    std::vector<std::uint32_t> subset;
    std::vector<ResourcePath> sub_paths;
    for (std::uint32_t f = 0; f < nf; ++f) {
      if (rng() % 3 == 0) continue;
      subset.push_back(f);
      sub_paths.push_back(all[f]);
    }
    std::vector<double> rates(subset.size(), -1.0);
    solver.solve(table, subset, caps, rates);
    const auto want = reference_maxmin(sub_paths, caps);
    for (std::size_t i = 0; i < subset.size(); ++i) {
      EXPECT_EQ(rates[i], want[i]) << "call " << call << " flow " << i;
    }
  }
}

TEST(MaxMin, RejectsOutOfRangeResources) {
  EXPECT_THROW(maxmin_fair_rates({{0, 2}}, {1.0, 1.0}), ContractViolation);
  // A rejected call leaves a reused solver in working order.
  MaxMinSolver solver;
  PathTable table;
  table.add({0, 5});
  table.add({0});
  std::vector<double> caps = {4.0, 4.0};
  std::vector<double> rates(1);
  const std::vector<std::uint32_t> bad = {0};
  EXPECT_THROW(solver.solve(table, bad, caps, rates), ContractViolation);
  const std::vector<std::uint32_t> good = {1};
  solver.solve(table, good, caps, rates);
  EXPECT_EQ(rates[0], 4.0);
}

// ------------------------------------------------------------- network

ClusterSpec tiny_spec() {
  ClusterSpec s;
  s.nodes = 4;
  s.procs_per_node = 2;
  s.nic_bw = 100.0;  // bytes/s — tiny numbers keep arithmetic exact
  s.mem_bw = 1000.0;
  s.latency_s = 0.5;
  s.flops_per_proc = 10.0;
  return s;
}

TEST(Network, SingleInterNodeFlow) {
  Network net(tiny_spec());
  // Ranks are cyclic across nodes: rank 0 -> node 0, rank 1 -> node 1.
  auto r = net.run_flows({{0, 1, 200}});
  EXPECT_NEAR(r.makespan_s, 0.5 + 200.0 / 100.0, 1e-9);
}

TEST(Network, IntraNodeFlowUsesMemoryBandwidth) {
  Network net(tiny_spec());
  // Ranks 0 and 4 are both on node 0 (cyclic layout with 4 nodes).
  auto r = net.run_flows({{0, 4, 200}});
  EXPECT_NEAR(r.makespan_s, 0.5 + 200.0 / 1000.0, 1e-9);
}

TEST(Network, SendersOnOneNodeShareTheNic) {
  Network net(tiny_spec());
  // Ranks 0 and 4 (node 0) both send to distinct remote nodes.
  auto r = net.run_flows({{0, 1, 100}, {4, 2, 100}});
  EXPECT_NEAR(r.finish_s[0], 0.5 + 100.0 / 50.0, 1e-9);
  EXPECT_NEAR(r.finish_s[1], 0.5 + 100.0 / 50.0, 1e-9);
}

TEST(Network, ReceiversOnOneNodeShareTheNicIn) {
  Network net(tiny_spec());
  auto r = net.run_flows({{1, 0, 100}, {2, 4, 100}});  // both into node 0
  EXPECT_NEAR(r.finish_s[0], 0.5 + 100.0 / 50.0, 1e-9);
  EXPECT_NEAR(r.finish_s[1], 0.5 + 100.0 / 50.0, 1e-9);
}

TEST(Network, ShortFlowFinishesFirstThenLongSpeedsUp) {
  Network net(tiny_spec());
  // Same src node, one short one long: share 50/50 until the short one
  // drains, then the long one gets the full NIC.
  auto r = net.run_flows({{0, 1, 50}, {4, 2, 150}});
  EXPECT_NEAR(r.finish_s[0], 0.5 + 1.0, 1e-9);           // 50 B at 50 B/s
  EXPECT_NEAR(r.finish_s[1], 0.5 + 1.0 + 1.0, 1e-9);     // then 100 at 100
}

TEST(Network, BisectionCapsAggregate) {
  ClusterSpec s = tiny_spec();
  s.bisection_bw = 100.0;  // all inter-node traffic shares 100 B/s
  Network net(s);
  // Four disjoint node pairs, 100 B each: without the cap each runs at
  // 100 B/s (1 s); with it they share 25 B/s each.
  auto r = net.run_flows({{0, 1, 100}, {2, 3, 100}});
  EXPECT_NEAR(r.makespan_s, 0.5 + 100.0 / 50.0, 1e-9);
}

TEST(Network, ZeroByteFlowCostsLatencyOnly) {
  Network net(tiny_spec());
  auto r = net.run_flows({{0, 1, 0}});
  EXPECT_NEAR(r.makespan_s, 0.5, 1e-12);
}

TEST(Network, EmptyFlowSetHasZeroMakespan) {
  Network net(tiny_spec());
  EXPECT_EQ(net.run_flows({}).makespan_s, 0.0);
}

TEST(Network, RejectsOutOfRangeRanks) {
  Network net(tiny_spec());
  EXPECT_THROW(net.run_flows({{0, 99, 10}}), ContractViolation);
}

TEST(Network, PhaseAddsComputeAndCommunication) {
  Network net(tiny_spec());
  Phase p;
  p.flows = {{0, 1, 200}};                   // 0.5 + 2.0 s
  p.compute = {{0, 30}, {1, 50}, {2, 20}};   // max = 5.0 s at 10 flop/s
  PhaseResult r = net.run_phase(p);
  EXPECT_NEAR(r.comm_s, 2.5, 1e-9);
  EXPECT_NEAR(r.compute_s, 5.0, 1e-9);
  EXPECT_NEAR(r.total_s(), 7.5, 1e-9);
}

TEST(Network, PhasesAccumulate) {
  Network net(tiny_spec());
  Phase p;
  p.flows = {{0, 1, 100}};
  p.compute = {{0, 10}};
  PhaseResult r = net.run_phases({p, p, p});
  EXPECT_NEAR(r.comm_s, 3 * 1.5, 1e-9);
  EXPECT_NEAR(r.compute_s, 3 * 1.0, 1e-9);
}

// Bit identity of whole simulations against the reference simulator:
// random flow sets mixing zero-byte, intra-node and self flows with
// unequal sizes (so flows drain over several rounds), across both rank
// layouts, with and without a bisection cap.
TEST(Network, FinishTimesMatchTheReferenceSimulatorExactly) {
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    std::mt19937_64 rng(seed);
    ClusterSpec s;
    s.nodes = 1 + static_cast<std::uint32_t>(rng() % 8);
    s.procs_per_node = 1 + static_cast<std::uint32_t>(rng() % 3);
    s.layout = seed % 2 == 0 ? RankLayout::kCyclic : RankLayout::kBlocked;
    s.nic_bw = 1e6 + static_cast<double>(rng() % 1000) * 1e5;
    s.mem_bw = 1e7 + static_cast<double>(rng() % 1000) * 1e6;
    s.latency_s = static_cast<double>(rng() % 100) * 1e-5;
    s.bisection_bw = seed % 3 == 0 ? 0.0 : 5e5 + static_cast<double>(
                                                     rng() % 1000) * 1e5;
    const Network net(s);
    const std::uint32_t procs = s.procs();
    std::vector<Flow> flows(rng() % 60);
    for (Flow& f : flows) {
      f.src = static_cast<std::uint32_t>(rng() % procs);
      f.dst = static_cast<std::uint32_t>(rng() % procs);
      const std::uint64_t kind = rng() % 8;
      f.bytes = kind == 0 ? 0 : kind == 1 ? 1 + rng() % 10
                                          : 1 + rng() % 50'000'000;
    }
    const auto want = reference_finish_times(s, flows);
    const Network::RunResult got = net.run_flows(flows);
    ASSERT_EQ(got.finish_s.size(), want.size());
    for (std::size_t f = 0; f < flows.size(); ++f) {
      EXPECT_EQ(got.finish_s[f], want[f]) << "seed " << seed << " flow " << f;
    }
  }
}

TEST(Network, RepeatedPhaseSumsLikeThatManyPhases) {
  Network net(tiny_spec());
  Phase p;
  p.flows = {{0, 1, 70}, {4, 2, 130}, {3, 7, 11}};
  p.compute = {{0, 3}, {5, 7}};
  for (std::uint32_t steps : {0u, 1u, 2u, 7u, 16u}) {
    const PhaseResult want =
        net.run_phases(std::vector<Phase>(steps, p));
    const PhaseResult got = net.run_repeated(p, steps);
    EXPECT_EQ(got.comm_s, want.comm_s) << steps;
    EXPECT_EQ(got.compute_s, want.compute_s) << steps;
  }
}

// Ring-shift sanity: all ranks shifting simultaneously along a ring see
// per-node NIC sharing; doubling message size doubles the transfer term.
TEST(Network, RingShiftScalesLinearlyInBytes) {
  ClusterSpec s = ClusterSpec::itanium2003(8);
  Network net(s);
  auto ring = [&](std::uint64_t bytes) {
    std::vector<Flow> flows;
    const std::uint32_t p = s.procs();
    for (std::uint32_t r = 0; r < p; ++r) {
      flows.push_back({r, (r + 1) % p, bytes});
    }
    return net.run_flows(flows).makespan_s;
  };
  const double t1 = ring(1'000'000);
  const double t2 = ring(2'000'000);
  EXPECT_NEAR(t2 - s.latency_s, 2.0 * (t1 - s.latency_s), 1e-6 * t2);
}

// Calibration check: a 16-rank ring shift of the Table 2 T1 block size
// (55.3 MB) should take roughly the paper's ≈3.5 s per step.
TEST(Network, CalibrationMatchesPaperScale) {
  ClusterSpec s = ClusterSpec::itanium2003(8);
  Network net(s);
  std::vector<Flow> flows;
  for (std::uint32_t r = 0; r < 16; ++r) {
    flows.push_back({r, (r + 1) % 16, 55'296'000});
  }
  const double t = net.run_flows(flows).makespan_s;
  EXPECT_GT(t, 2.5);
  EXPECT_LT(t, 5.5);
}

// ------------------------------------------------- characterization

/// characterize() as it was before identical steps were simulated once:
/// every rotation step and every ring-fallback step is its own phase.
CharacterizationTable reference_characterize(const Network& net,
                                             const ProcGrid& grid) {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t base = 1024; base <= 512ull * 1024 * 1024; base *= 2) {
    sizes.push_back(base);
    const std::uint64_t mid = base + base / 2;
    if (mid < 512ull * 1024 * 1024) sizes.push_back(mid);
  }
  const std::uint32_t e = grid.edge;
  const std::uint32_t p = grid.procs;
  auto rotation = [&](int dim, std::uint64_t block) {
    Phase step;
    for (std::uint32_t z1 = 0; z1 < e; ++z1) {
      for (std::uint32_t z2 = 0; z2 < e; ++z2) {
        const std::uint32_t dst = dim == 1 ? grid.rank((z1 + 1) % e, z2)
                                           : grid.rank(z1, (z2 + 1) % e);
        step.flows.push_back({grid.rank(z1, z2), dst, block});
      }
    }
    return net.run_phases(std::vector<Phase>(e, step)).comm_s;
  };
  auto redistribute = [&](std::uint64_t block) {
    Phase phase;
    const std::uint64_t piece = block / std::max<std::uint32_t>(e - 1, 1);
    for (std::uint32_t z1 = 0; z1 < e; ++z1) {
      for (std::uint32_t z2 = 0; z2 < e; ++z2) {
        for (std::uint32_t q = 0; q < e; ++q) {
          if (q != z2) {
            phase.flows.push_back({grid.rank(z1, z2), grid.rank(z1, q), piece});
          }
        }
      }
    }
    return net.run_phase(phase).comm_s;
  };
  auto allgather = [&](std::uint64_t total) {
    const std::uint64_t block = std::max<std::uint64_t>(total / p, 1);
    std::vector<Phase> phases;
    if ((p & (p - 1)) == 0) {
      for (std::uint32_t dist = 1; dist < p; dist *= 2) {
        Phase phase;
        for (std::uint32_t r = 0; r < p; ++r) {
          phase.flows.push_back({r, r ^ dist, checked_mul(block, dist)});
        }
        phases.push_back(phase);
      }
    } else {
      Phase step;
      for (std::uint32_t r = 0; r < p; ++r) {
        step.flows.push_back({r, (r + 1) % p, block});
      }
      phases.assign(p - 1, step);
    }
    return net.run_phases(phases).comm_s;
  };
  auto reduce_scatter = [&](int dim, std::uint64_t partial) {
    auto at = [&](std::uint32_t line, std::uint32_t pos) {
      return dim == 1 ? grid.rank(pos, line) : grid.rank(line, pos);
    };
    std::vector<Phase> phases;
    if ((e & (e - 1)) == 0 && e > 1) {
      std::uint64_t payload = partial / 2;
      for (std::uint32_t dist = e / 2; dist >= 1; dist /= 2) {
        Phase phase;
        for (std::uint32_t line = 0; line < e; ++line) {
          for (std::uint32_t pos = 0; pos < e; ++pos) {
            phase.flows.push_back({at(line, pos), at(line, pos ^ dist),
                                   std::max<std::uint64_t>(payload, 1)});
          }
        }
        phases.push_back(phase);
        payload /= 2;
      }
    } else if (e > 1) {
      Phase step;
      const std::uint64_t chunk = std::max<std::uint64_t>(partial / e, 1);
      for (std::uint32_t line = 0; line < e; ++line) {
        for (std::uint32_t pos = 0; pos < e; ++pos) {
          step.flows.push_back({at(line, pos), at(line, (pos + 1) % e), chunk});
        }
      }
      phases.assign(e - 1, step);
    }
    if (phases.empty()) return 1e-9;
    return net.run_phases(phases).comm_s;
  };

  CharacterizationTable t;
  for (std::uint64_t s : sizes) {
    t.rotate_dim1.add_sample(s, rotation(1, s));
    t.rotate_dim2.add_sample(s, rotation(2, s));
    t.redistribute.add_sample(s, redistribute(s));
    t.allgather.add_sample(s, allgather(s));
    t.reduce_dim1.add_sample(s, reduce_scatter(1, s));
    t.reduce_dim2.add_sample(s, reduce_scatter(2, s));
  }
  return t;
}

void expect_same_samples(const CostCurve& got, const CostCurve& want,
                         const char* curve, std::uint32_t procs) {
  EXPECT_EQ(got.sample_bytes(), want.sample_bytes()) << curve << " P=" << procs;
  ASSERT_EQ(got.size(), want.size()) << curve << " P=" << procs;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.sample_seconds()[i], want.sample_seconds()[i])
        << curve << " P=" << procs << " sample " << i;
  }
}

// P = 36 has edge 6, which is not a power of two, so it exercises the
// allgather and reduce-scatter ring fallbacks as well as the rotation.
TEST(Characterize, OneSimulatedStepMatchesEveryStepSimulated) {
  for (std::uint32_t procs : {16u, 36u, 64u}) {
    const ProcGrid grid = ProcGrid::make(procs, 2);
    const Network net(ClusterSpec::itanium2003(grid.nodes()));
    const CharacterizationTable got = characterize(net, grid);
    const CharacterizationTable want = reference_characterize(net, grid);
    expect_same_samples(got.rotate_dim1, want.rotate_dim1, "rotate_dim1",
                        procs);
    expect_same_samples(got.rotate_dim2, want.rotate_dim2, "rotate_dim2",
                        procs);
    expect_same_samples(got.redistribute, want.redistribute, "redistribute",
                        procs);
    expect_same_samples(got.allgather, want.allgather, "allgather", procs);
    expect_same_samples(got.reduce_dim1, want.reduce_dim1, "reduce_dim1",
                        procs);
    expect_same_samples(got.reduce_dim2, want.reduce_dim2, "reduce_dim2",
                        procs);
  }
}

}  // namespace
}  // namespace tce
