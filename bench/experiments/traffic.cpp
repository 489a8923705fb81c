// T1 — store-and-forward traffic over percolated networks.
//
// The paper measures single-pair routing complexity and explicitly sets
// aside the "full blown routing scheme" question of the emulation
// literature: what congestion and delay do many concurrent messages induce?
// This sweep answers it empirically for the registry topologies: a scenario
// matrix of workloads per topology, plus two scaling studies —
//   (a) probe amortisation: per-message discovery cost under the shared
//       probe cache as the batch grows (the hot-path optimisation), and
//   (b) open-loop load sweep: queueing delay versus Poisson arrival rate
//       through the saturation knee.

#include "experiments.hpp"

#include <memory>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "core/routers/greedy_router.hpp"
#include "random/rng.hpp"
#include "sim/options.hpp"
#include "sim/registry.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace faultroute::paper {
namespace {

RouterFactory best_first_factory() {
  return [] { return std::make_unique<BestFirstRouter>(); };
}

void scenario_matrix(const sim::Options& options) {
  // (spec, messages): topologies without a closed-form metric (de Bruijn,
  // butterfly, CCC) fall back to BFS in Topology::distance, which the
  // best-first router calls per expansion — keep their batches small.
  using Scenario = std::pair<std::string, std::uint64_t>;
  const std::vector<Scenario> topologies =
      options.quick ? std::vector<Scenario>{{"hypercube:8", 256}, {"torus:2:16", 256}}
                    : std::vector<Scenario>{{"hypercube:10", 1024},
                                            {"torus:2:32", 1024},
                                            {"de_bruijn:9", 192},
                                            {"butterfly:6", 192},
                                            {"ccc:6", 192}};

  Table table({"topology", "workload", "delivered", "max_load", "mean_qdelay", "makespan",
               "throughput", "amortization"});
  for (const auto& [spec, messages] : topologies) {
    const auto graph = sim::make_topology(spec);
    const HashEdgeSampler env(0.6, derive_seed(options.seed, 1));
    for (const auto& workload_name : workload_names()) {
      WorkloadConfig workload;
      workload.kind = parse_workload(workload_name);
      workload.messages = messages;
      workload.seed = derive_seed(options.seed, 2);
      const auto batch = generate_workload(*graph, workload);
      const TrafficResult r =
          run_traffic(*graph, env, best_first_factory(), batch, TrafficConfig{});
      table.add_row({spec, workload_name, Table::fmt(r.delivered),
                     Table::fmt(r.max_edge_load), Table::fmt(r.mean_queueing_delay, 2),
                     Table::fmt(r.makespan), Table::fmt(r.throughput(), 2),
                     Table::fmt(r.probe_amortization(), 2)});
    }
  }
  table.print("T1a: workload matrix at p=0.6 (best-first router, capacity 1)");
  if (const auto path = options.csv_path("t1a_workload_matrix")) table.write_csv(*path);
}

void amortisation_sweep(const sim::Options& options) {
  const auto graph = sim::make_topology(options.quick ? "hypercube:8" : "hypercube:10");
  const HashEdgeSampler env(0.6, derive_seed(options.seed, 3));
  const std::vector<std::uint64_t> batch_sizes =
      options.quick ? std::vector<std::uint64_t>{32, 128, 512}
                    : std::vector<std::uint64_t>{64, 256, 1024, 4096};

  Table table({"messages", "unique_edges", "total_probes", "probes/msg", "unique/msg",
               "amortization"});
  for (const std::uint64_t messages : batch_sizes) {
    WorkloadConfig workload;
    workload.kind = WorkloadKind::kRandomPairs;
    workload.messages = messages;
    workload.seed = derive_seed(options.seed, 4);
    const TrafficResult r = run_traffic(*graph, env, best_first_factory(),
                                        generate_workload(*graph, workload), TrafficConfig{});
    const double m = static_cast<double>(messages);
    table.add_row({Table::fmt(messages), Table::fmt(r.unique_edges_probed),
                   Table::fmt(r.total_distinct_probes),
                   Table::fmt(static_cast<double>(r.total_distinct_probes) / m, 1),
                   Table::fmt(static_cast<double>(r.unique_edges_probed) / m, 1),
                   Table::fmt(r.probe_amortization(), 2)});
  }
  table.print("T1b: shared-cache amortisation — discovery cost per message vs batch size");
  if (const auto path = options.csv_path("t1b_amortisation")) table.write_csv(*path);
}

void load_sweep(const sim::Options& options) {
  const auto graph = sim::make_topology(options.quick ? "torus:2:16" : "torus:2:32");
  const HashEdgeSampler env(0.7, derive_seed(options.seed, 5));
  const std::uint64_t messages = options.quick ? 256 : 1024;

  Table table({"rate", "delivered", "mean_qdelay", "max_qdelay", "makespan", "throughput"});
  for (const double rate : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    WorkloadConfig workload;
    workload.kind = WorkloadKind::kPoisson;
    workload.messages = messages;
    workload.arrival_rate = rate;
    workload.seed = derive_seed(options.seed, 6);
    const TrafficResult r = run_traffic(*graph, env, best_first_factory(),
                                        generate_workload(*graph, workload), TrafficConfig{});
    table.add_row({Table::fmt(rate, 2), Table::fmt(r.delivered),
                   Table::fmt(r.mean_queueing_delay, 2), Table::fmt(r.max_queueing_delay),
                   Table::fmt(r.makespan), Table::fmt(r.throughput(), 2)});
  }
  table.print("T1c: open-loop Poisson load sweep — delay through the saturation knee");
  if (const auto path = options.csv_path("t1c_load_sweep")) table.write_csv(*path);
}

}  // namespace

void t1_traffic(const sim::Options& options) {
  scenario_matrix(options);
  amortisation_sweep(options);
  load_sweep(options);
}

}  // namespace faultroute::paper
