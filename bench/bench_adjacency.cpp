// bench_adjacency — A/B benchmark of the flat CSR adjacency snapshot
// (graph/flat_adjacency.hpp) against the implicit virtual Topology
// interface it shortcuts, flipped via TrafficConfig::adjacency (and the
// AdjacencyMode parameter of the percolation analyses).
//
// Two workload families:
//
//  * traffic: the repository's six curated scenario sweeps (scenarios/*.scn)
//    — the exact cell grid and seeding the scenario runner executes — with
//    the routing phase timed through TrafficConfig::timings, once per
//    backend, with only the adjacency backend flipped.
//  * percolation: a giant-component sweep (ClusterDecomposition over every
//    edge) and a chemical-distance sweep (BFS per random pair), the
//    analyses rewritten over CSR rows with epoch-stamped visited arrays.
//
// Per-scenario times are summed over cells, best of --reps repetitions;
// outcomes of the two backends are cross-checked on every cell and the
// process fails on any mismatch, so the bench doubles as an equivalence
// test at scales the unit suite cannot afford.
//
//   bench_adjacency [--quick] [--json] [--out PATH] [--reps N] [--scenarios DIR]
//
// --json emits one machine-readable object (schema
// faultroute.bench.adjacency.v1, validated in CI by
// scripts/check_bench_schema.py); the committed full-run perf record lives
// in BENCH_adjacency.json at the repo root.

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
#include "obs/schemas.hpp"
#include "obs/build_info.hpp"
#include "graph/flat_adjacency.hpp"
#include "percolation/chemical_distance.hpp"
#include "percolation/cluster_analysis.hpp"
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
      throw std::invalid_argument("bench_adjacency: " + flag + " needs a value");
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
      throw std::invalid_argument("bench_adjacency: unknown flag '" + arg +
                                  "' (known: --quick --json --out --reps --scenarios)");
    }
  }
  return options;
}

struct BenchResult {
  std::string name;
  std::string kind;  // "traffic" or "percolation"
  std::uint64_t cells = 0;
  double flat_ms = 0.0;
  double implicit_ms = 0.0;
  bool identical = true;
  [[nodiscard]] double speedup() const {
    return flat_ms > 0.0 ? implicit_ms / flat_ms : 0.0;
  }
};

double ms_since(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - since)
      .count();
}

/// The backends must agree on everything observable.
bool results_identical(const TrafficResult& a, const TrafficResult& b) {
  if (a.routed != b.routed || a.failed_routing != b.failed_routing ||
      a.censored != b.censored || a.invalid_paths != b.invalid_paths ||
      a.delivered != b.delivered || a.stranded != b.stranded ||
      a.total_distinct_probes != b.total_distinct_probes ||
      a.unique_edges_probed != b.unique_edges_probed || a.makespan != b.makespan ||
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

BenchResult run_traffic_bench(const std::string& stem, const BenchOptions& options) {
  scenario::ScenarioSpec spec =
      scenario::load_scenario_file(options.scenarios_dir + "/" + stem + ".scn");
  // Clamp to bench scale: --quick is CI-smoke size, the full run keeps
  // message volume but trims trials.
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
    // Pre-warm the cached snapshot so the timed region measures steady-state
    // resolution, not the one-time O(channels) build.
    (void)topologies.back()->flat_adjacency();
  }

  BenchResult result;
  result.name = spec.name;
  result.kind = "traffic";

  const int reps = options.reps > 0 ? options.reps : (options.quick ? 1 : 2);
  for (int rep = 0; rep < reps; ++rep) {
    double flat_ms = 0.0;
    double implicit_ms = 0.0;
    std::uint64_t index = 0;
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
              const HashEdgeSampler environment(p, derive_seed(spec.seed, 2 * index));
              const auto factory = [&]() { return sim::make_router(router, topology); };

              TrafficPhaseTimings flat_timings;
              TrafficConfig flat = config;
              flat.adjacency = AdjacencyMode::kFlat;
              flat.timings = &flat_timings;
              const TrafficResult flat_run =
                  run_traffic(topology, environment, factory, messages, flat);
              flat_ms += flat_timings.routing_ms;

              TrafficPhaseTimings implicit_timings;
              TrafficConfig implicit = config;
              implicit.adjacency = AdjacencyMode::kImplicit;
              implicit.timings = &implicit_timings;
              const TrafficResult implicit_run =
                  run_traffic(topology, environment, factory, messages, implicit);
              implicit_ms += implicit_timings.routing_ms;

              if (rep == 0) {
                result.identical =
                    result.identical && results_identical(flat_run, implicit_run);
              }
            }
          }
        }
      }
    }
    if (rep == 0 || flat_ms < result.flat_ms) result.flat_ms = flat_ms;
    if (rep == 0 || implicit_ms < result.implicit_ms) result.implicit_ms = implicit_ms;
    result.cells = index;
  }
  return result;
}

/// Giant-component sweep: full cluster decompositions (every edge queried)
/// across topology families and p values, flat vs implicit.
BenchResult run_giant_component_bench(const BenchOptions& options) {
  BenchResult result;
  result.name = "giant-component";
  result.kind = "percolation";

  const std::vector<std::string> topo_specs = {"hypercube:11", "torus:2:48", "de_bruijn:11"};
  const std::vector<double> p_values = {0.3, 0.5, 0.7};
  const int trials = options.quick ? 1 : 4;
  const int reps = options.reps > 0 ? options.reps : (options.quick ? 1 : 2);

  std::vector<std::unique_ptr<Topology>> topologies;
  for (const auto& spec : topo_specs) {
    topologies.push_back(sim::make_topology(spec));
    (void)topologies.back()->flat_adjacency();  // pre-warm the snapshot
  }

  for (int rep = 0; rep < reps; ++rep) {
    double flat_ms = 0.0;
    double implicit_ms = 0.0;
    std::uint64_t cells = 0;
    std::uint64_t index = 0;
    for (const auto& topology : topologies) {
      for (const double p : p_values) {
        for (int trial = 0; trial < trials; ++trial, ++index) {
          const HashEdgeSampler environment(p, derive_seed(20050701, index));

          const auto flat_start = std::chrono::steady_clock::now();
          const ComponentSummary flat_summary =
              analyze_components(*topology, environment, AdjacencyMode::kFlat);
          flat_ms += ms_since(flat_start);

          const auto implicit_start = std::chrono::steady_clock::now();
          const ComponentSummary implicit_summary =
              analyze_components(*topology, environment, AdjacencyMode::kImplicit);
          implicit_ms += ms_since(implicit_start);

          if (rep == 0) {
            result.identical = result.identical &&
                               flat_summary.num_open_edges == implicit_summary.num_open_edges &&
                               flat_summary.num_components == implicit_summary.num_components &&
                               flat_summary.largest == implicit_summary.largest &&
                               flat_summary.second_largest == implicit_summary.second_largest;
          }
          ++cells;
        }
      }
    }
    if (rep == 0 || flat_ms < result.flat_ms) result.flat_ms = flat_ms;
    if (rep == 0 || implicit_ms < result.implicit_ms) result.implicit_ms = implicit_ms;
    result.cells = cells;
  }
  return result;
}

/// Chemical-distance sweep: shortest-open-path BFS per random pair in a
/// supercritical torus, flat vs implicit.
BenchResult run_chemical_distance_bench(const BenchOptions& options) {
  BenchResult result;
  result.name = "chemical-distance";
  result.kind = "percolation";

  const auto topology = sim::make_topology(options.quick ? "torus:2:32" : "torus:2:64");
  (void)topology->flat_adjacency();  // pre-warm the snapshot
  const std::vector<double> p_values = {0.55, 0.65, 0.8};
  const std::uint64_t pairs = options.quick ? 32 : 256;
  const int reps = options.reps > 0 ? options.reps : (options.quick ? 1 : 2);
  const std::uint64_t n = topology->num_vertices();

  for (int rep = 0; rep < reps; ++rep) {
    double flat_ms = 0.0;
    double implicit_ms = 0.0;
    std::uint64_t cells = 0;
    std::uint64_t env_index = 0;
    for (const double p : p_values) {
      const HashEdgeSampler environment(p, derive_seed(20050701, 1000 + env_index++));
      Rng pair_rng(7);
      for (std::uint64_t k = 0; k < pairs; ++k) {
        const VertexId u = uniform_below(pair_rng, n);
        const VertexId v = uniform_below(pair_rng, n);

        const auto flat_start = std::chrono::steady_clock::now();
        const ChemicalPathResult flat_run =
            chemical_path(*topology, environment, u, v, 0, AdjacencyMode::kFlat);
        flat_ms += ms_since(flat_start);

        const auto implicit_start = std::chrono::steady_clock::now();
        const ChemicalPathResult implicit_run =
            chemical_path(*topology, environment, u, v, 0, AdjacencyMode::kImplicit);
        implicit_ms += ms_since(implicit_start);

        if (rep == 0) {
          result.identical = result.identical &&
                             flat_run.distance == implicit_run.distance &&
                             flat_run.path == implicit_run.path;
        }
        ++cells;
      }
    }
    if (rep == 0 || flat_ms < result.flat_ms) result.flat_ms = flat_ms;
    if (rep == 0 || implicit_ms < result.implicit_ms) result.implicit_ms = implicit_ms;
    result.cells = cells;
  }
  return result;
}

std::string json_report(const std::vector<BenchResult>& results, const BenchOptions& options) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "{\"schema\":\"" << obs::schemas::kBenchAdjacency
      << "\",\"schema_version\":" << obs::schemas::kBenchVersion
      << ",\"provenance\":" << obs::provenance_json("bench_adjacency")
      << ",\"quick\":" << (options.quick ? "true" : "false") << ",\"benchmarks\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    if (i > 0) out << ',';
    out << "{\"name\":\"" << r.name << "\",\"kind\":\"" << r.kind
        << "\",\"cells\":" << r.cells << ",\"flat_ms\":" << r.flat_ms
        << ",\"implicit_ms\":" << r.implicit_ms << ",\"speedup\":" << r.speedup()
        << ",\"identical\":" << (r.identical ? "true" : "false") << '}';
  }
  out << "]}\n";
  return out.str();
}

int run(const BenchOptions& options) {
  std::vector<BenchResult> results;
  results.reserve(kScenarioStems.size() + 2);
  for (const std::string& stem : kScenarioStems) {
    results.push_back(run_traffic_bench(stem, options));
  }
  results.push_back(run_giant_component_bench(options));
  results.push_back(run_chemical_distance_bench(options));

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
    Table table({"benchmark", "kind", "cells", "implicit_ms", "flat_ms", "speedup",
                 "identical"});
    for (const BenchResult& r : results) {
      table.add_row({r.name, r.kind, Table::fmt(r.cells), Table::fmt(r.implicit_ms, 1),
                     Table::fmt(r.flat_ms, 1), Table::fmt(r.speedup(), 2),
                     r.identical ? "yes" : "NO"});
    }
    table.print("adjacency A/B: flat CSR snapshot vs implicit virtual interface");
  }

  if (!all_identical) {
    std::fprintf(stderr, "bench_adjacency: BACKENDS DISAGREE — see 'identical' column\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_adjacency: %s\n", e.what());
    return 1;
  }
}
