#include "tce/simnet/network.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
#include <string>

#include "tce/common/json.hpp"
#include "tce/obs/metrics.hpp"
#include "tce/obs/trace.hpp"
#include "tce/simnet/maxmin.hpp"

namespace tce {

namespace {

/// Trace lanes on the simulated-time track (pid 2): phases on one row,
/// compute on another, individual flows fanned out below.
constexpr int kPhaseTid = 1;
constexpr int kComputeTid = 2;
constexpr int kFlowTidBase = 10;

/// Name of a resource id in run_flows' layout ([0,n) NIC out, [n,2n)
/// NIC in, [2n,3n) memory engines, then the optional bisection cap).
std::string resource_name(std::size_t r, std::uint32_t n) {
  if (r < n) return "nic_out:" + std::to_string(r);
  if (r < 2ull * n) return "nic_in:" + std::to_string(r - n);
  if (r < 3ull * n) return "mem:" + std::to_string(r - 2ull * n);
  return "bisection";
}

}  // namespace

Network::Network(ClusterSpec spec) : spec_(spec) { spec_.validate(); }

Network::RunResult Network::run_flows(const std::vector<Flow>& flows) const {
  const std::uint32_t procs = spec_.procs();
  RunResult result;
  result.finish_s.assign(flows.size(), 0.0);

  // Resource layout: [0, nodes) node NIC out, [nodes, 2*nodes) node NIC in,
  // [2*nodes, 3*nodes) node memory engines, then (optionally) bisection.
  const std::uint32_t n = spec_.nodes;
  std::vector<double> capacities(3 * n, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    capacities[i] = spec_.nic_bw;
    capacities[n + i] = spec_.nic_bw;
    capacities[2 * n + i] = spec_.mem_bw;
  }
  std::uint32_t bisection_id = 0;
  if (spec_.bisection_bw > 0) {
    bisection_id = static_cast<std::uint32_t>(capacities.size());
    capacities.push_back(spec_.bisection_bw);
  }

  // Flows that enter the fluid simulation, numbered k in start order:
  // path k in `paths`, its index into `flows` and its bytes left.
  // Zero-byte flows finish at latency and never enter.  `active` lists
  // the undrained k in order and is compacted in place each round.
  PathTable paths;
  paths.reserve(flows.size(), 3 * flows.size());
  std::vector<std::uint32_t> flow_of;
  std::vector<double> left;
  flow_of.reserve(flows.size());
  left.reserve(flows.size());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    TCE_EXPECTS(flows[f].src < procs && flows[f].dst < procs);
    if (flows[f].bytes == 0) {
      result.finish_s[f] = spec_.latency_s;
      continue;
    }
    const std::uint32_t sn = spec_.node_of(flows[f].src);
    const std::uint32_t dn = spec_.node_of(flows[f].dst);
    if (sn == dn) {
      paths.add({2 * n + sn});
    } else if (spec_.bisection_bw > 0) {
      paths.add({sn, n + dn, bisection_id});
    } else {
      paths.add({sn, n + dn});
    }
    flow_of.push_back(static_cast<std::uint32_t>(f));
    left.push_back(static_cast<double>(flows[f].bytes));
  }
  std::vector<std::uint32_t> active(paths.size());
  std::iota(active.begin(), active.end(), 0u);

  // Tracing: per-flow first-round fair rate (the allocated bandwidth
  // while all flows contend) and bottleneck link — the most loaded
  // resource on the flow's path in that round.
  const bool tracing = obs::trace_enabled();
  std::vector<double> first_rate;
  std::vector<std::string> bottleneck;
  if (tracing && !active.empty()) {
    first_rate.assign(flows.size(), 0.0);
    bottleneck.assign(flows.size(), std::string());
    std::vector<double> load(capacities.size(), 0.0);
    for (const std::uint32_t k : active) {
      for (std::uint32_t r : paths[k]) load[r] += 1.0;
    }
    for (const std::uint32_t k : active) {
      const auto path = paths[k];
      std::size_t worst = path[0];
      for (std::uint32_t r : path) {
        if (load[r] / capacities[r] > load[worst] / capacities[worst]) {
          worst = r;
        }
      }
      bottleneck[flow_of[k]] = resource_name(worst, n);
    }
  }

  // Per-link busy time: a resource is busy for a round's dt when at
  // least one active flow crosses it that round (stamps keep a shared
  // link from being counted once per flow).  Summed over rounds this is
  // the fluid-model utilization each link sees; observed as one
  // histogram sample per busy link below.
  const bool metrics = obs::metrics_enabled();
  std::vector<double> busy;
  std::vector<std::size_t> busy_stamp;
  std::size_t round = 0;
  if (metrics) {
    busy.assign(capacities.size(), 0.0);
    busy_stamp.assign(capacities.size(), 0);
  }

  MaxMinSolver solver;
  std::vector<double> rate_buf(active.size());
  double now = 0.0;
  bool first_round = true;
  while (!active.empty()) {
    const std::span<double> rates(rate_buf.data(), active.size());
    solver.solve(paths, active, capacities, rates);
    if (tracing && first_round) {
      for (std::size_t i = 0; i < active.size(); ++i) {
        first_rate[flow_of[active[i]]] = rates[i];
      }
      first_round = false;
    }

    // Time until the earliest active flow drains.
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < active.size(); ++i) {
      dt = std::min(dt, left[active[i]] / rates[i]);
    }
    TCE_ENSURES(dt > 0 && dt < std::numeric_limits<double>::infinity());
    now += dt;
    if (metrics) {
      ++round;
      for (const std::uint32_t k : active) {
        for (std::uint32_t r : paths[k]) {
          if (busy_stamp[r] != round) {
            busy_stamp[r] = round;
            busy[r] += dt;
          }
        }
      }
    }

    std::size_t kept = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const std::uint32_t k = active[i];
      const double rest = left[k] - rates[i] * dt;
      if (rest <= 1e-6) {  // bytes; sub-byte residue counts as done
        result.finish_s[flow_of[k]] = spec_.latency_s + now;
      } else {
        left[k] = rest;
        active[kept++] = k;
      }
    }
    active.resize(kept);
  }

  for (double f : result.finish_s) {
    result.makespan_s = std::max(result.makespan_s, f);
  }

  if (metrics) {
    std::uint64_t bytes = 0;
    for (const Flow& f : flows) bytes += f.bytes;
    obs::count("simnet.flows", flows.size());
    obs::count("simnet.bytes", bytes);
    // One registry lookup for all of this run's busy links.
    std::erase_if(busy, [](double b) { return !(b > 0); });
    obs::observe_many("simnet.link_busy_s", busy);
  }
  if (tracing && !flows.empty()) {
    const double base = obs::sim_now_s();
    for (std::size_t f = 0; f < flows.size(); ++f) {
      json::ObjectWriter args;
      args.field("src", flows[f].src)
          .field("dst", flows[f].dst)
          .field("bytes", flows[f].bytes)
          .field("allocated_bw", flows[f].bytes != 0
                                     ? first_rate[f]
                                     : 0.0);
      if (flows[f].bytes != 0 && !bottleneck[f].empty()) {
        args.field("bottleneck", bottleneck[f]);
      }
      obs::trace_sim_complete(
          "flow " + std::to_string(flows[f].src) + "->" +
              std::to_string(flows[f].dst),
          "simnet", kFlowTidBase + static_cast<int>(f), base,
          result.finish_s[f], args.str());
    }
  }
  return result;
}

PhaseResult Network::run_phase(const Phase& phase) const {
  return simulate_phase(phase, 1);
}

PhaseResult Network::run_repeated(const Phase& phase,
                                  std::uint32_t steps) const {
  PhaseResult total;
  if (steps == 0) return total;
  const PhaseResult r = simulate_phase(phase, steps);
  for (std::uint32_t s = 0; s < steps; ++s) {
    total.comm_s += r.comm_s;
    total.compute_s += r.compute_s;
  }
  return total;
}

PhaseResult Network::simulate_phase(const Phase& phase,
                                    std::uint32_t steps) const {
  PhaseResult r;
  for (const auto& c : phase.compute) {
    TCE_EXPECTS(c.rank < spec_.procs());
    r.compute_s = std::max(
        r.compute_s, static_cast<double>(c.flops) / spec_.flops_per_proc);
  }
  // Trace layout: ranks compute, then the flows are exchanged, so
  // compute occupies [base, base+compute) on the simulated clock and
  // the flows (emitted by run_flows at the advanced cursor) follow.
  // Repeated steps are drawn once; the clock still advances step by
  // step, exactly as for that many separate phases.
  const bool tracing = obs::trace_enabled();
  const double base = tracing ? obs::sim_now_s() : 0.0;
  if (tracing) {
    if (r.compute_s > 0) {
      obs::trace_sim_complete("compute", "simnet", kComputeTid, base,
                              r.compute_s);
    }
    obs::sim_advance(r.compute_s);
  }
  r.comm_s = run_flows(phase.flows).makespan_s;
  if (tracing) {
    double dur_s = 0.0;
    for (std::uint32_t s = 0; s < steps; ++s) {
      if (s > 0) obs::sim_advance(r.compute_s);
      obs::sim_advance(r.comm_s);
      dur_s += r.total_s();
    }
    json::ObjectWriter args;
    args.field("flows", phase.flows.size())
        .field("comm_s", r.comm_s)
        .field("compute_s", r.compute_s);
    if (steps > 1) args.field("steps", steps);
    obs::trace_sim_complete(phase.label.empty() ? "phase" : phase.label,
                            "simnet", kPhaseTid, base, dur_s, args.str());
  }
  obs::count("simnet.phases");
  return r;
}

PhaseResult Network::run_phases(const std::vector<Phase>& phases) const {
  PhaseResult total;
  for (const auto& p : phases) {
    const PhaseResult r = run_phase(p);
    total.comm_s += r.comm_s;
    total.compute_s += r.compute_s;
  }
  return total;
}

}  // namespace tce
