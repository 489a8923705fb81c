// bench_frontier — A/B benchmark of the batched frontier search + cached
// distance oracle (traffic/frontier_search.hpp, graph/distance_oracle.hpp)
// against the per-message routing loop it accelerates, flipped via
// TrafficConfig::frontier.
//
// The workload is the repository's six curated scenario sweeps
// (scenarios/*.scn) — the exact cell grid and seeding the scenario runner
// executes — with the routing phase timed through TrafficConfig::timings,
// once per frontier mode. The adjacency backend is held fixed at flat (the
// only path the batch executor engages on), so the measured delta is the
// frontier scheduling alone: 64-message bitset BFS blocks for
// flood/bidirectional routers, memoised oracle columns for the
// metric-guided routers.
//
// Per-scenario times are summed over cells, best of --reps repetitions;
// outcomes of the two modes are cross-checked on every cell and the process
// fails on any mismatch, so the bench doubles as a bit-identity test at
// scales the unit suite cannot afford.
//
//   bench_frontier [--quick] [--json] [--out PATH] [--reps N] [--scenarios DIR]
//
// --json emits one machine-readable object (schema
// faultroute.bench.frontier.v1, validated in CI by
// scripts/check_bench_schema.py); the committed full-run perf record lives
// in BENCH_frontier.json at the repo root, next to BENCH_adjacency.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "graph/flat_adjacency.hpp"
#include "obs/schemas.hpp"
#include "obs/build_info.hpp"
#include "random/rng.hpp"
#include "scenario/spec.hpp"
#include "sim/registry.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace {

using namespace faultroute;

#ifndef FAULTROUTE_SOURCE_DIR
#define FAULTROUTE_SOURCE_DIR "."
#endif

/// The curated sweeps, in the golden suite's order.
const std::vector<std::string> kScenarioStems = {
    "bisection_topologies", "debruijn_router_shootout", "gnp_oracle_gap",
    "hotspot_meltdown",     "hypercube_phase",          "mesh_poisson_load",
};

struct BenchOptions {
  bool quick = false;
  bool json = false;
  std::string out_path;
  std::string scenarios_dir = std::string(FAULTROUTE_SOURCE_DIR) + "/scenarios";
  int reps = 0;  // 0 = default (2 full, 1 quick)
};

BenchOptions parse_args(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& flag) -> std::string {
      if (arg.size() > flag.size() + 1 && arg.rfind(flag + "=", 0) == 0) {
        return arg.substr(flag.size() + 1);
      }
      if (arg == flag && i + 1 < argc) return argv[++i];
      throw std::invalid_argument("bench_frontier: " + flag + " needs a value");
    };
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--out" || arg.rfind("--out=", 0) == 0) {
      options.out_path = value_of("--out");
    } else if (arg == "--scenarios" || arg.rfind("--scenarios=", 0) == 0) {
      options.scenarios_dir = value_of("--scenarios");
    } else if (arg == "--reps" || arg.rfind("--reps=", 0) == 0) {
      options.reps = std::stoi(value_of("--reps"));
    } else {
      throw std::invalid_argument("bench_frontier: unknown flag '" + arg +
                                  "' (known: --quick --json --out --reps --scenarios)");
    }
  }
  return options;
}

struct BenchResult {
  std::string name;
  std::uint64_t cells = 0;
  std::uint64_t messages = 0;
  std::uint64_t routed = 0;
  std::uint64_t delivered = 0;
  std::uint64_t total_distinct_probes = 0;
  std::uint64_t unique_edges_probed = 0;
  double batch_ms = 0.0;
  double permsg_ms = 0.0;
  bool identical = true;
  [[nodiscard]] double speedup() const {
    return batch_ms > 0.0 ? permsg_ms / batch_ms : 0.0;
  }
};

/// The frontier modes must agree on everything observable.
bool results_identical(const TrafficResult& a, const TrafficResult& b) {
  if (a.routed != b.routed || a.failed_routing != b.failed_routing ||
      a.censored != b.censored || a.invalid_paths != b.invalid_paths ||
      a.delivered != b.delivered || a.stranded != b.stranded ||
      a.total_distinct_probes != b.total_distinct_probes ||
      a.unique_edges_probed != b.unique_edges_probed || a.cache_hits != b.cache_hits ||
      a.cache_misses != b.cache_misses || a.makespan != b.makespan ||
      a.max_edge_load != b.max_edge_load || a.edges_used != b.edges_used ||
      a.mean_edge_load != b.mean_edge_load ||
      a.mean_queueing_delay != b.mean_queueing_delay ||
      a.max_queueing_delay != b.max_queueing_delay ||
      a.mean_path_edges != b.mean_path_edges || a.sim_steps != b.sim_steps ||
      a.admission_events != b.admission_events || a.transmissions != b.transmissions ||
      a.peak_active_channels != b.peak_active_channels ||
      a.outcomes.size() != b.outcomes.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    if (a.outcomes[i].routed != b.outcomes[i].routed ||
        a.outcomes[i].censored != b.outcomes[i].censored ||
        a.outcomes[i].delivered != b.outcomes[i].delivered ||
        a.outcomes[i].distinct_probes != b.outcomes[i].distinct_probes ||
        a.outcomes[i].path_edges != b.outcomes[i].path_edges ||
        a.outcomes[i].finish_time != b.outcomes[i].finish_time ||
        a.outcomes[i].queueing_delay != b.outcomes[i].queueing_delay) {
      return false;
    }
  }
  return true;
}

BenchResult run_scenario_bench(const std::string& stem, const BenchOptions& options) {
  scenario::ScenarioSpec spec =
      scenario::load_scenario_file(options.scenarios_dir + "/" + stem + ".scn");
  // Clamp to bench scale exactly as bench_adjacency does: --quick is
  // CI-smoke size, the full run keeps message volume but trims trials.
  if (options.quick) {
    spec.messages = std::min<std::uint64_t>(spec.messages, 64);
    spec.trials = std::min<std::uint64_t>(spec.trials, 1);
  } else {
    spec.messages = std::min<std::uint64_t>(spec.messages, 512);
    spec.trials = std::min<std::uint64_t>(spec.trials, 2);
  }
  scenario::validate_scenario(spec);

  std::vector<std::unique_ptr<Topology>> topologies;
  for (const auto& topo_spec : spec.topologies) {
    topologies.push_back(sim::make_topology(topo_spec));
    // Pre-warm the cached snapshot so the timed region measures the frontier
    // scheduling, not the one-time O(channels) CSR build. The distance
    // oracle is NOT pre-warmed: its lazy column builds are genuine batch-
    // mode routing cost and are charged to batch_ms where they occur.
    (void)topologies.back()->flat_adjacency();
  }

  BenchResult result;
  result.name = spec.name;

  const int reps = options.reps > 0 ? options.reps : (options.quick ? 1 : 2);
  for (int rep = 0; rep < reps; ++rep) {
    double batch_ms = 0.0;
    double permsg_ms = 0.0;
    std::uint64_t index = 0;
    std::uint64_t messages_total = 0;
    std::uint64_t routed = 0;
    std::uint64_t delivered = 0;
    std::uint64_t distinct = 0;
    std::uint64_t unique = 0;
    // The scenario runner's exact cell grid and seeding contract.
    for (std::size_t ti = 0; ti < topologies.size(); ++ti) {
      for (const double p : spec.p_values) {
        for (const auto& router : spec.routers) {
          for (const auto& workload_spec : spec.workloads) {
            for (std::uint64_t trial = 0; trial < spec.trials; ++trial, ++index) {
              const Topology& topology = *topologies[ti];
              WorkloadConfig workload = sim::make_workload(workload_spec);
              workload.messages = spec.messages;
              workload.seed = derive_seed(spec.seed, 2 * index + 1);
              const auto messages = generate_workload(topology, workload);

              TrafficConfig config;
              config.edge_capacity = spec.edge_capacity;
              if (spec.probe_budget > 0) config.probe_budget = spec.probe_budget;
              config.max_steps = spec.max_steps;
              config.threads = 1;
              config.adjacency = AdjacencyMode::kFlat;
              const HashEdgeSampler environment(p, derive_seed(spec.seed, 2 * index));
              const auto factory = [&]() { return sim::make_router(router, topology); };

              TrafficPhaseTimings batch_timings;
              TrafficConfig batch = config;
              batch.frontier = FrontierMode::kBatch;
              batch.timings = &batch_timings;
              const TrafficResult batch_run =
                  run_traffic(topology, environment, factory, messages, batch);
              batch_ms += batch_timings.routing_ms;

              TrafficPhaseTimings permsg_timings;
              TrafficConfig permsg = config;
              permsg.frontier = FrontierMode::kPerMessage;
              permsg.timings = &permsg_timings;
              const TrafficResult permsg_run =
                  run_traffic(topology, environment, factory, messages, permsg);
              permsg_ms += permsg_timings.routing_ms;

              if (rep == 0) {
                result.identical =
                    result.identical && results_identical(batch_run, permsg_run);
                messages_total += batch_run.messages;
                routed += batch_run.routed;
                delivered += batch_run.delivered;
                distinct += batch_run.total_distinct_probes;
                unique += batch_run.unique_edges_probed;
              }
            }
          }
        }
      }
    }
    if (rep == 0) {
      result.messages = messages_total;
      result.routed = routed;
      result.delivered = delivered;
      result.total_distinct_probes = distinct;
      result.unique_edges_probed = unique;
    }
    if (rep == 0 || batch_ms < result.batch_ms) result.batch_ms = batch_ms;
    if (rep == 0 || permsg_ms < result.permsg_ms) result.permsg_ms = permsg_ms;
    result.cells = index;
  }
  return result;
}

std::string json_report(const std::vector<BenchResult>& results, const BenchOptions& options) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "{\"schema\":\"" << obs::schemas::kBenchFrontier
      << "\",\"schema_version\":" << obs::schemas::kBenchVersion
      << ",\"provenance\":" << obs::provenance_json("bench_frontier")
      << ",\"quick\":" << (options.quick ? "true" : "false") << ",\"benchmarks\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    if (i > 0) out << ',';
    out << "{\"name\":\"" << r.name << "\",\"cells\":" << r.cells
        << ",\"messages\":" << r.messages << ",\"routed\":" << r.routed
        << ",\"delivered\":" << r.delivered
        << ",\"total_distinct_probes\":" << r.total_distinct_probes
        << ",\"unique_edges_probed\":" << r.unique_edges_probed
        << ",\"batch_routing_ms\":" << r.batch_ms
        << ",\"permsg_routing_ms\":" << r.permsg_ms << ",\"speedup\":" << r.speedup()
        << ",\"identical\":" << (r.identical ? "true" : "false") << '}';
  }
  out << "]}\n";
  return out.str();
}

int run(const BenchOptions& options) {
  std::vector<BenchResult> results;
  results.reserve(kScenarioStems.size());
  for (const std::string& stem : kScenarioStems) {
    results.push_back(run_scenario_bench(stem, options));
  }

  bool all_identical = true;
  for (const BenchResult& r : results) all_identical = all_identical && r.identical;

  if (options.json) {
    const std::string report = json_report(results, options);
    if (options.out_path.empty()) {
      std::cout << report;
    } else {
      std::ofstream out(options.out_path);
      if (!out) throw std::runtime_error("cannot write --out file '" + options.out_path + "'");
      out << report;
    }
  } else {
    Table table({"benchmark", "cells", "messages", "permsg_ms", "batch_ms", "speedup",
                 "identical"});
    for (const BenchResult& r : results) {
      table.add_row({r.name, Table::fmt(r.cells), Table::fmt(r.messages),
                     Table::fmt(r.permsg_ms, 1), Table::fmt(r.batch_ms, 1),
                     Table::fmt(r.speedup(), 2), r.identical ? "yes" : "NO"});
    }
    table.print("frontier A/B: batched bitset BFS + distance oracle vs per-message loop");
  }

  if (!all_identical) {
    std::fprintf(stderr, "bench_frontier: FRONTIER MODES DISAGREE — see 'identical' column\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_frontier: %s\n", e.what());
    return 1;
  }
}
