// faultroute — command-line front end for the library.
//
// Subcommands:
//   route       route one pair through one percolation environment
//   components  cluster structure of an environment
//   threshold   bisect the giant-component threshold of a topology
//   trials      routing-complexity measurement (Definition 2), with stats
//   permutation batch-route random pairs and report path congestion
//   traffic     store-and-forward congestion simulation of a workload
//   scenario    run a declarative scenario spec (sweep cross-products) and
//               emit schema-versioned JSON-lines or CSV; supports
//               --snapshot-dir (mmap'd adjacency), --checkpoint (resume),
//               and --shard k/n (multi-process partitioning)
//   snapshot    build or inspect on-disk CSR adjacency snapshots
//               (faultroute.snap.v1 — see graph/snapshot.hpp)
//   merge       stitch sharded scenario reports into the byte-identical
//               single-process report
//
// Full reference: docs/CLI.md; scenario grammar: docs/SCENARIOS.md.
//
// Examples:
//   faultroute route --topology hypercube:12 --p 0.35 --router landmark
//   faultroute route --topology double_tree:10 --p 0.8 --router double-tree-oracle
//   faultroute components --topology torus:2:64 --p 0.55
//   faultroute threshold --topology de_bruijn:12
//   faultroute trials --topology mesh:2:96 --p 0.6 --router landmark --trials 50
//   faultroute permutation --topology hypercube:10 --p 0.6 --router best-first --pairs 256
//   faultroute traffic --topology hypercube:12 --p 0.5 --router greedy
//       --workload permutation --messages 4096
//   faultroute scenario scenarios/hypercube_phase.scn
//   faultroute scenario --spec "topology=hypercube:8; p=0.3:0.7:5; router=greedy"
//   faultroute snapshot build --topology hypercube:12 --dir snapshots
//   faultroute snapshot info --dir snapshots --topology hypercube:12
//   faultroute scenario run.scn --snapshot-dir snapshots --checkpoint run.ckpt
//   faultroute scenario run.scn --shard 1/3 --out shard1.jsonl   # (and 2/3, 3/3)
//   faultroute merge shard1.jsonl shard2.jsonl shard3.jsonl --out full.jsonl

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "core/experiment.hpp"
#include "core/permutation_routing.hpp"
#include "core/probe_context.hpp"
#include "graph/double_tree.hpp"
#include "graph/flat_adjacency.hpp"
#include "graph/mesh.hpp"
#include "graph/snapshot.hpp"
#include "obs/run_metrics.hpp"
#include "obs/schemas.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/threshold.hpp"
#include "random/rng.hpp"
#include "scenario/merge.hpp"
#include "scenario/reporter.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sim/registry.hpp"
#include "sim/strict_parse.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace {

using namespace faultroute;

/// Every flag each subcommand reads (without the leading "--"). Args
/// rejects any other flag by name, so a typo or a retired flag fails the
/// run instead of being silently ignored.
const std::map<std::string, std::set<std::string>>& subcommand_flags() {
  static const std::map<std::string, std::set<std::string>> flags = {
      {"route", {"topology", "p", "router", "seed", "from", "to", "metrics", "trace"}},
      {"components", {"topology", "p", "seed", "adjacency", "metrics", "trace"}},
      {"threshold",
       {"topology", "target", "trials", "tolerance", "seed", "lo", "hi", "adjacency",
        "metrics", "trace"}},
      {"trials",
       {"topology", "p", "router", "from", "to", "trials", "seed", "budget", "threads",
        "metrics", "trace"}},
      {"permutation",
       {"topology", "p", "router", "seed", "pairs", "pair-seed", "budget", "adjacency",
        "metrics", "trace"}},
      {"traffic",
       {"topology", "p", "router", "seed", "workload", "messages", "workload-seed", "target",
        "rate", "capacity", "threads", "budget", "adjacency", "frontier",
        "snapshot-dir", "metrics", "trace", "trace-samples"}},
      {"scenario",
       {"spec", "seed", "snapshot-dir", "threads", "quick", "format", "out", "checkpoint",
        "shard", "metrics", "trace"}},
      {"snapshot", {"topology", "dir", "file"}},
      {"merge", {"out"}},
  };
  return flags;
}

/// Minimal --key value / --key=value parser over one subcommand's flags.
class Args {
 public:
  /// Same cap as the scenario grammar's `threads` key.
  static constexpr std::uint64_t kMaxThreads = 4096;

  /// Parses argv[first..]; throws std::invalid_argument naming the first
  /// flag that is not in `known`.
  Args(int argc, char** argv, int first, const std::set<std::string>& known)
      : known_(&known) {
    for (int i = first; i < argc; ++i) {
      std::string token = argv[i];
      if (token.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --flag, got '" + token + "'");
      }
      token = token.substr(2);
      const auto eq = token.find('=');
      if (eq != std::string::npos) {
        values_[token.substr(0, eq)] = token.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[token] = argv[++i];
      } else {
        values_[token] = "true";
      }
    }
    for (const auto& entry : values_) {
      if (known.count(entry.first) != 0) continue;
      std::string accepted;
      for (const std::string& flag : known) accepted += " --" + flag;
      throw std::invalid_argument("unknown flag --" + entry.first + " (accepted:" + accepted +
                                  ")");
    }
  }

  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = find(key);
    return it != values_.end() ? it->second : fallback;
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    const auto it = find(key);
    if (it == values_.end()) throw std::invalid_argument("missing required --" + key);
    return it->second;
  }
  // Numeric flags parse strictly (sim/strict_parse.hpp): the whole token
  // must be the number, so "1x", "abc" and "-1" are errors naming the flag.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const {
    const auto it = find(key);
    if (it == values_.end()) return fallback;
    const auto value = sim::strict_f64(it->second);
    if (!value) {
      throw std::invalid_argument("--" + key + " must be a number, got '" + it->second + "'");
    }
    return *value;
  }
  /// A probability flag (--p, --lo, --hi): a number in [0, 1], checked
  /// here so the error names the flag rather than the sampler.
  [[nodiscard]] double probability(const std::string& key, double fallback) const {
    const double value = get_double(key, fallback);
    if (!(value >= 0.0 && value <= 1.0)) {
      throw std::invalid_argument("--" + key + " must be a probability in [0, 1], got '" +
                                  get(key, "") + "'");
    }
    return value;
  }
  [[nodiscard]] std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = find(key);
    if (it == values_.end()) return fallback;
    const auto value = sim::strict_u64(it->second);
    if (!value) {
      throw std::invalid_argument("--" + key + " must be a non-negative integer, got '" +
                                  it->second + "'");
    }
    return *value;
  }
  /// get_u64 for flags narrowed to a smaller type: values above `max` are
  /// an error naming the flag, never a truncating cast.
  [[nodiscard]] std::uint64_t get_u64_at_most(const std::string& key, std::uint64_t fallback,
                                              std::uint64_t max) const {
    const std::uint64_t value = get_u64(key, fallback);
    if (value > max) {
      throw std::invalid_argument("--" + key + " must be at most " + std::to_string(max) +
                                  ", got " + std::to_string(value));
    }
    return value;
  }
  /// --threads, capped at kMaxThreads.
  [[nodiscard]] unsigned threads(unsigned fallback) const {
    return static_cast<unsigned>(get_u64_at_most("threads", fallback, kMaxThreads));
  }
  /// --trials, which the experiment harness counts in an int.
  [[nodiscard]] int trials(int fallback) const {
    return static_cast<int>(get_u64_at_most("trials", static_cast<std::uint64_t>(fallback),
                                            std::numeric_limits<int>::max()));
  }
  /// A vertex-id flag (--from / --to): must name a vertex of `graph`.
  [[nodiscard]] VertexId vertex(const std::string& key, VertexId fallback,
                                const Topology& graph) const {
    const std::uint64_t value = get_u64(key, fallback);
    if (value >= graph.num_vertices()) {
      throw std::invalid_argument("--" + key + " " + std::to_string(value) +
                                  " is not a vertex of " + graph.name() + " (" +
                                  std::to_string(graph.num_vertices()) + " vertices)");
    }
    return value;
  }

 private:
  using Values = std::map<std::string, std::string>;

  /// Lookup of a flag the subcommand reads; reading an undeclared flag is a
  /// bug in subcommand_flags(), not a user error.
  [[nodiscard]] Values::const_iterator find(const std::string& key) const {
    if (known_->count(key) == 0) {
      throw std::logic_error("flag --" + key + " is read but not declared");
    }
    return values_.find(key);
  }

  const std::set<std::string>* known_;
  Values values_;
};

/// Shared --adjacency flag: CSR-snapshot vs implicit-virtual adjacency
/// backend (graph/flat_adjacency.hpp). Results are identical; the flag
/// trades the snapshot's memory for speed.
AdjacencyMode adjacency_of(const Args& args) {
  return parse_adjacency_mode(args.get("adjacency", "auto"));
}

/// Shared --metrics PATH / --trace PATH handling, available on every
/// subcommand. When either flag is given the sink owns a RunMetrics for the
/// command to feed (counters, phase spans, delivery samples); finish()
/// serializes it — the faultroute.metrics.v1 report and/or the Chrome
/// trace-event JSON (open in chrome://tracing or Perfetto). With neither
/// flag, metrics() is null and instrumentation stays on its zero-cost path.
class ObsSink {
 public:
  ObsSink(const Args& args, std::string command)
      : command_(std::move(command)),
        metrics_path_(args.get("metrics", "")),
        trace_path_(args.get("trace", "")) {
    if (!metrics_path_.empty() || !trace_path_.empty()) {
      metrics_ = std::make_unique<obs::RunMetrics>();
      metrics_->profiler().label_current_thread("main");
    }
  }

  [[nodiscard]] obs::RunMetrics* metrics() { return metrics_.get(); }

  void finish() {
    if (metrics_ == nullptr) return;
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_);
      if (!out) {
        throw std::runtime_error("cannot write --metrics file '" + metrics_path_ + "'");
      }
      metrics_->write_metrics_json(out, command_);
    }
    if (!trace_path_.empty()) {
      std::ofstream out(trace_path_);
      if (!out) {
        throw std::runtime_error("cannot write --trace file '" + trace_path_ + "'");
      }
      metrics_->write_chrome_trace(out);
    }
  }

 private:
  std::string command_;
  std::string metrics_path_;
  std::string trace_path_;
  std::unique_ptr<obs::RunMetrics> metrics_;
};

/// Default endpoints: the double tree routes root-to-root; everything else
/// routes corner-to-"antipode".
void default_pair(const Topology& graph, VertexId& u, VertexId& v) {
  if (const auto* tree = dynamic_cast<const DoubleBinaryTree*>(&graph)) {
    u = tree->root1();
    v = tree->root2();
    return;
  }
  u = 0;
  if (const auto* mesh = dynamic_cast<const Mesh*>(&graph)) {
    // The true antipode of the origin: half a side along every axis on the
    // torus (corner-to-corner is only 2 hops away under wraparound).
    Mesh::Coords far{};
    for (int a = 0; a < mesh->dimension(); ++a) {
      far[static_cast<std::size_t>(a)] = mesh->wraps() ? mesh->side() / 2 : mesh->side() - 1;
    }
    v = mesh->vertex_at(far);
    return;
  }
  v = graph.num_vertices() - 1;
}

int cmd_route(const Args& args) {
  const auto graph = sim::make_topology(args.require("topology"));
  const double p = args.probability("p", 0.5);
  const auto router = sim::make_router(args.get("router", "landmark"), *graph);
  const std::uint64_t seed = args.get_u64("seed", 2005);
  VertexId u;
  VertexId v;
  default_pair(*graph, u, v);
  u = args.vertex("from", u, *graph);
  v = args.vertex("to", v, *graph);

  ObsSink sink(args, "route");
  obs::PhaseProfiler* profiler = sink.metrics() ? &sink.metrics()->profiler() : nullptr;

  const HashEdgeSampler env(p, seed);
  std::cout << graph->name() << "  p=" << p << "  seed=" << seed << "  router="
            << router->name() << "\n";
  ProbeContext ctx(*graph, env, u, router->required_mode());
  std::optional<Path> path;
  {
    const obs::PhaseProfiler::Scope route_scope(profiler, "route");
    path = router->route(ctx, u, v);
  }
  if (sink.metrics()) {
    obs::CounterRegistry& counters = sink.metrics()->counters();
    counters.add(counters.id("route.probe_calls"), ctx.total_probes());
    counters.add(counters.id("route.distinct_probes"), ctx.distinct_probes());
    counters.add(counters.id("route.bfs_expansions"), ctx.expansions());
  }
  if (!path) {
    std::cout << graph->vertex_label(u) << " and " << graph->vertex_label(v)
              << " are not connected (" << ctx.distinct_probes()
              << " probes to establish)\n";
    sink.finish();
    return 0;
  }
  std::cout << "path (" << (path->size() - 1) << " hops, fault-free distance "
            << graph->distance(u, v) << "):";
  const std::size_t shown = std::min<std::size_t>(path->size(), 24);
  for (std::size_t i = 0; i < shown; ++i) std::cout << ' ' << graph->vertex_label((*path)[i]);
  if (shown < path->size()) std::cout << " ... " << graph->vertex_label(path->back());
  std::cout << "\nrouting complexity: " << ctx.distinct_probes() << " distinct probes ("
            << ctx.total_probes() << " total)\n";
  sink.finish();
  return 0;
}

int cmd_components(const Args& args) {
  const auto graph = sim::make_topology(args.require("topology"));
  const double p = args.probability("p", 0.5);
  const std::uint64_t seed = args.get_u64("seed", 2005);
  ObsSink sink(args, "components");
  ComponentSummary summary;
  {
    const obs::PhaseProfiler::Scope scope(
        sink.metrics() ? &sink.metrics()->profiler() : nullptr, "components");
    summary = analyze_components(*graph, HashEdgeSampler(p, seed), adjacency_of(args));
  }
  if (sink.metrics()) {
    obs::CounterRegistry& counters = sink.metrics()->counters();
    counters.add(counters.id("components.open_edges"), summary.num_open_edges);
    counters.add(counters.id("components.count"), summary.num_components);
  }
  Table table({"metric", "value"});
  table.add_row({"vertices", Table::fmt(summary.num_vertices)});
  table.add_row({"open edges", Table::fmt(summary.num_open_edges)});
  table.add_row({"components", Table::fmt(summary.num_components)});
  table.add_row({"largest", Table::fmt(summary.largest)});
  table.add_row({"largest fraction", Table::fmt(summary.largest_fraction(), 4)});
  table.add_row({"second largest", Table::fmt(summary.second_largest)});
  table.print(graph->name() + " at p=" + Table::fmt(p, 3));
  sink.finish();
  return 0;
}

int cmd_threshold(const Args& args) {
  const auto graph = sim::make_topology(args.require("topology"));
  ThresholdConfig config;
  config.target_fraction = args.get_double("target", 0.2);
  config.trials_per_point = args.trials(6);
  config.tolerance = args.get_double("tolerance", 0.005);
  config.seed = args.get_u64("seed", 2005);
  const double lo = args.probability("lo", 0.02);
  const double hi = args.probability("hi", 0.98);
  ObsSink sink(args, "threshold");
  double pc = 0.0;
  {
    const obs::PhaseProfiler::Scope scope(
        sink.metrics() ? &sink.metrics()->profiler() : nullptr, "threshold");
    const auto order = largest_cluster_order(*graph, adjacency_of(args));
    pc = estimate_threshold(order, lo, hi, config);
  }
  std::cout << graph->name() << ": giant-component threshold ~ " << pc
            << " (order parameter crosses " << config.target_fraction << ")\n";
  sink.finish();
  return 0;
}

int cmd_trials(const Args& args) {
  const auto graph = sim::make_topology(args.require("topology"));
  const double p = args.probability("p", 0.5);
  const std::string router_name = args.get("router", "landmark");
  VertexId u;
  VertexId v;
  default_pair(*graph, u, v);
  u = args.vertex("from", u, *graph);
  v = args.vertex("to", v, *graph);

  ExperimentConfig config;
  config.trials = args.trials(30);
  config.base_seed = args.get_u64("seed", 2005);
  if (args.get_u64("budget", 0) > 0) config.probe_budget = args.get_u64("budget", 0);

  ObsSink sink(args, "trials");
  const auto factory = [&]() { return sim::make_router(router_name, *graph); };
  std::vector<TrialOutcome> outcomes;
  {
    const obs::PhaseProfiler::Scope scope(
        sink.metrics() ? &sink.metrics()->profiler() : nullptr, "trials");
    outcomes = run_routing_trials_parallel(*graph, p, factory, u, v, config, args.threads(0));
  }
  const ExperimentSummary s = summarize_trials(outcomes);
  if (sink.metrics()) {
    obs::CounterRegistry& counters = sink.metrics()->counters();
    counters.add(counters.id("trials.trials"), static_cast<std::uint64_t>(s.trials));
    counters.add(counters.id("trials.routed"), static_cast<std::uint64_t>(s.routed));
    counters.add(counters.id("trials.censored"), static_cast<std::uint64_t>(s.censored));
  }

  Table table({"metric", "value"});
  table.add_row({"trials", Table::fmt(s.trials)});
  table.add_row({"routed", Table::fmt(s.routed)});
  table.add_row({"censored (budget)", Table::fmt(s.censored)});
  table.add_row({"mean distinct probes", Table::fmt(s.mean_distinct, 1)});
  table.add_row({"median distinct probes", Table::fmt(s.median_distinct, 1)});
  table.add_row({"max distinct probes", Table::fmt(s.max_distinct, 0)});
  table.add_row({"mean path edges", Table::fmt(s.mean_path_edges, 1)});
  table.add_row({"rejection rate", Table::fmt(s.rejection_rate, 3)});
  table.print(graph->name() + "  p=" + Table::fmt(p, 3) + "  router=" + router_name);
  sink.finish();
  return 0;
}

int cmd_permutation(const Args& args) {
  const auto graph = sim::make_topology(args.require("topology"));
  const double p = args.probability("p", 0.5);
  const std::string router_name = args.get("router", "landmark");
  const std::uint64_t seed = args.get_u64("seed", 2005);

  PermutationRoutingConfig config;
  config.pairs = args.get_u64("pairs", 64);
  config.pair_seed = args.get_u64("pair-seed", 1);
  if (args.get_u64("budget", 0) > 0) config.probe_budget = args.get_u64("budget", 0);
  config.adjacency = adjacency_of(args);

  ObsSink sink(args, "permutation");
  const HashEdgeSampler env(p, seed);
  const auto factory = [&]() { return sim::make_router(router_name, *graph); };
  PermutationRoutingResult r;
  {
    const obs::PhaseProfiler::Scope scope(
        sink.metrics() ? &sink.metrics()->profiler() : nullptr, "permutation");
    r = route_permutation(*graph, env, factory, config);
  }
  if (sink.metrics()) {
    obs::CounterRegistry& counters = sink.metrics()->counters();
    counters.add(counters.id("permutation.pairs"), r.pairs);
    counters.add(counters.id("permutation.routed"), r.routed);
    counters.add(counters.id("permutation.failed"), r.failed);
  }

  Table table({"metric", "value"});
  table.add_row({"pairs (connected)", Table::fmt(r.pairs)});
  table.add_row({"routed", Table::fmt(r.routed)});
  table.add_row({"failed", Table::fmt(r.failed)});
  table.add_row({"skipped disconnected", Table::fmt(r.skipped_disconnected)});
  table.add_row({"mean probes", Table::fmt(r.mean_probes(), 1)});
  table.add_row({"mean path length", Table::fmt(r.mean_path_length(), 1)});
  table.add_row({"max edge load", Table::fmt(r.max_edge_load)});
  table.add_row({"mean edge load", Table::fmt(r.mean_edge_load, 2)});
  table.print(graph->name() + "  p=" + Table::fmt(p, 3) + "  router=" + router_name +
              "  permutation batch");
  sink.finish();
  return 0;
}

int cmd_traffic(const Args& args) {
  const auto graph = sim::make_topology(args.require("topology"));
  const double p = args.probability("p", 0.5);
  const std::string router_name = args.get("router", "landmark");
  const std::uint64_t seed = args.get_u64("seed", 2005);

  WorkloadConfig workload;
  workload.kind = parse_workload(args.get("workload", "permutation"));
  workload.messages = args.get_u64("messages", 1024);
  workload.seed = args.get_u64("workload-seed", 1);
  workload.hotspot_target = args.get_u64("target", 0);
  workload.arrival_rate = args.get_double("rate", 1.0);

  TrafficConfig config;
  config.edge_capacity = args.get_u64("capacity", 1);
  config.threads = args.threads(0);
  if (args.get_u64("budget", 0) > 0) config.probe_budget = args.get_u64("budget", 0);

  // --adjacency flat|implicit|auto: CSR-snapshot vs virtual adjacency for
  // the routing phase.
  config.adjacency = adjacency_of(args);

  // --frontier batch|permsg: batched frontier search + distance-oracle
  // prewarm vs one independent search per message. Results identical
  // (parse_frontier_mode throws on anything else).
  config.frontier = parse_frontier_mode(args.get("frontier", "batch"));

  // --snapshot-dir DIR resolves the routing adjacency from an on-disk
  // snapshot (`faultroute snapshot build`), mmap'd instead of materialized.
  // Absent snapshot falls back to the normal build; a corrupt one is a hard
  // error. Results are identical either way.
  std::unique_ptr<FlatAdjacency> snapshot;
  const std::string snapshot_dir = args.get("snapshot-dir", "");
  if (!snapshot_dir.empty()) {
    snapshot = open_snapshot_adjacency(snapshot_dir, args.require("topology"), *graph);
    config.flat_snapshot = snapshot.get();
  }

  // --metrics/--trace attach the observability sink; the engine also
  // records the bounded per-step delivery time-series into the report
  // (--trace-samples caps its memory).
  ObsSink sink(args, "traffic");
  config.metrics = sink.metrics();
  if (sink.metrics()) {
    sink.metrics()->enable_delivery_sampler(
        static_cast<std::size_t>(args.get_u64("trace-samples", 4096)));
  }

  const HashEdgeSampler env(p, seed);
  const auto messages = generate_workload(*graph, workload);
  const auto factory = [&]() { return sim::make_router(router_name, *graph); };
  const TrafficResult result = run_traffic(*graph, env, factory, messages, config);

  traffic_table(result).print(graph->name() + "  p=" + Table::fmt(p, 3) + "  router=" +
                              router_name + "  workload=" + workload_name(workload.kind) +
                              "  adjacency=" +
                              adjacency_mode_name(config.adjacency) + "  frontier=" +
                              frontier_mode_name(config.frontier));
  sink.finish();
  return 0;
}

/// `faultroute scenario [FILE] [--spec "k=v; ..."] [--format jsonl|csv]
///                      [--out PATH] [--quick] [--seed S] [--threads T]`
///
/// FILE and --spec compose: the file is applied first, then the --spec
/// assignments override it, then the dedicated flags override both. --quick
/// shrinks messages/trials to CI-smoke size without touching the sweep axes.
int cmd_scenario(const std::string& file, const Args& args) {
  scenario::ScenarioSpec spec;
  if (!file.empty()) spec = scenario::load_scenario_file(file);
  const std::string inline_spec = args.get("spec", "");
  if (file.empty() && inline_spec.empty()) {
    throw std::invalid_argument("scenario needs a spec file argument or --spec \"...\"");
  }
  scenario::apply_scenario_assignments(spec, inline_spec);
  spec.seed = args.get_u64("seed", spec.seed);
  spec.snapshot_dir = args.get("snapshot-dir", spec.snapshot_dir);
  spec.threads = args.threads(spec.threads);
  if (args.get("quick", "false") == "true") {
    spec.messages = std::min<std::uint64_t>(spec.messages, 64);
    spec.trials = std::min<std::uint64_t>(spec.trials, 2);
  }
  scenario::validate_scenario(spec);

  const std::string format = args.get("format", "jsonl");
  const std::string out_path = args.get("out", "");
  std::ofstream out_file;
  if (!out_path.empty()) {
    out_file.open(out_path);
    if (!out_file) throw std::runtime_error("cannot write --out file '" + out_path + "'");
  }
  std::ostream& out = out_path.empty() ? std::cout : out_file;

  ObsSink sink(args, "scenario");
  scenario::RunOptions options;
  options.metrics = sink.metrics();
  // --checkpoint PATH: journal completed cells; a rerun against the same
  // journal resumes and still emits the byte-identical report.
  options.checkpoint_path = args.get("checkpoint", "");
  // --shard k/n: compute and report only every n-th cell starting at k-1;
  // the n reports are reassembled by `faultroute merge`.
  const std::string shard = args.get("shard", "");
  if (!shard.empty()) {
    const auto slash = shard.find('/');
    const auto k = slash == std::string::npos
                       ? std::nullopt
                       : sim::strict_u64(shard.substr(0, slash));
    const auto n = slash == std::string::npos
                       ? std::nullopt
                       : sim::strict_u64(shard.substr(slash + 1));
    if (!k || !n || *k == 0 || *n == 0 || *k > *n || *n > 4096) {
      throw std::invalid_argument("--shard must be k/n with 1 <= k <= n <= 4096, got '" +
                                  shard + "'");
    }
    options.shard_index = static_cast<unsigned>(*k);
    options.shard_count = static_cast<unsigned>(*n);
  }

  const auto reporter = scenario::make_reporter(format, out);
  const auto summary = scenario::run_scenario(spec, *reporter, options);
  sink.finish();
  // Machine output goes to `out`; the human closing line goes to stderr so
  // stdout stays clean for piping.
  std::fprintf(stderr, "scenario '%s': %llu cells, %llu messages, %llu delivered (%s)\n",
               spec.name.c_str(), static_cast<unsigned long long>(summary.cells),
               static_cast<unsigned long long>(summary.messages),
               static_cast<unsigned long long>(summary.delivered),
               out_path.empty() ? "stdout" : out_path.c_str());
  return 0;
}

/// `faultroute snapshot build --topology SPEC --dir DIR`
/// `faultroute snapshot info (--file PATH | --dir DIR --topology SPEC)`
///
/// build materializes the topology's CSR adjacency once and persists it as
/// DIR's faultroute.snap.v1 file for that spec (rebuilding overwrites
/// atomically). info opens and fully verifies an existing snapshot and
/// prints the decoded header — on corruption it exits nonzero with the
/// diagnostic naming the offending field instead.
int cmd_snapshot(const std::string& action, const Args& args) {
  if (action == "build") {
    const std::string topo_spec = args.require("topology");
    const std::string dir = args.require("dir");
    const auto graph = sim::make_topology(topo_spec);
    std::filesystem::create_directories(dir);
    const std::string path = snapshot_path(dir, topo_spec);
    write_snapshot(path, topo_spec, graph->flat_adjacency());
    // Re-open through the verifying reader so a build that cannot be read
    // back never reports success.
    const SnapshotInfo info = read_snapshot_info(path);
    Table table({"field", "value"});
    table.add_row({"file", path});
    table.add_row({"topology", info.topology_spec});
    table.add_row({"vertices", Table::fmt(info.num_vertices)});
    table.add_row({"channels", Table::fmt(static_cast<std::uint64_t>(info.num_channels))});
    table.add_row({"payload bytes", Table::fmt(info.payload_bytes)});
    table.print("snapshot built: " + graph->name());
    return 0;
  }
  if (action == "info") {
    std::string path = args.get("file", "");
    if (path.empty()) path = snapshot_path(args.require("dir"), args.require("topology"));
    const SnapshotInfo info = read_snapshot_info(path);
    char hex[32];
    Table table({"field", "value"});
    table.add_row({"file", path});
    table.add_row({"version", Table::fmt(static_cast<std::uint64_t>(info.version))});
    table.add_row({"topology", info.topology_spec});
    table.add_row({"provenance", info.provenance});
    table.add_row({"vertices", Table::fmt(info.num_vertices)});
    table.add_row({"channels", Table::fmt(static_cast<std::uint64_t>(info.num_channels))});
    table.add_row({"edge ids", Table::fmt(static_cast<std::uint64_t>(info.num_edge_ids))});
    table.add_row({"payload bytes", Table::fmt(info.payload_bytes)});
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(info.payload_checksum));
    table.add_row({"payload checksum", hex});
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(info.header_checksum));
    table.add_row({"header checksum", hex});
    table.print("snapshot verified");
    return 0;
  }
  throw std::invalid_argument("snapshot action must be 'build' or 'info', got '" + action +
                              "'");
}

/// `faultroute merge SHARD... [--out PATH]` — stitch the reports of a
/// sharded scenario run back into the single-process report (byte-identical;
/// see scenario/merge.hpp for the validation rules).
int cmd_merge(const std::vector<std::string>& inputs, const Args& args) {
  if (inputs.empty()) {
    throw std::invalid_argument("merge needs at least one shard report file");
  }
  std::vector<std::string> reports;
  reports.reserve(inputs.size());
  for (const auto& path : inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read shard report '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    reports.push_back(buffer.str());
  }

  const std::string out_path = args.get("out", "");
  std::ofstream out_file;
  if (!out_path.empty()) {
    out_file.open(out_path, std::ios::binary);
    if (!out_file) throw std::runtime_error("cannot write --out file '" + out_path + "'");
  }
  std::ostream& out = out_path.empty() ? std::cout : out_file;

  const auto stats = scenario::merge_reports(reports, out);
  std::fprintf(stderr, "merge: %llu cells from %llu %s shards (%s)\n",
               static_cast<unsigned long long>(stats.cells),
               static_cast<unsigned long long>(stats.shards), stats.format.c_str(),
               out_path.empty() ? "stdout" : out_path.c_str());
  return 0;
}

void print_usage() {
  std::cout
      << "usage: faultroute <route|components|threshold|trials|permutation|traffic|scenario"
         "|snapshot|merge> [--flags]\n\n"
      << "topologies:";
  for (const auto& s : sim::topology_spec_examples()) std::cout << ' ' << s;
  std::cout << "\nrouters:   ";
  for (const auto& s : sim::router_names()) std::cout << ' ' << s;
  std::cout << "\nworkloads: ";
  for (const auto& s : workload_names()) std::cout << ' ' << s;
  std::cout << "\n\ncommon flags:      --topology SPEC --p P --seed S --router NAME\n"
            << "trials flags:      --trials N --budget B --threads T --from U --to V\n"
            << "permutation flags: --pairs N --pair-seed S --budget B\n"
            << "traffic flags:     --workload W --messages N --workload-seed S\n"
            << "                   --capacity C --threads T --budget B --target V --rate R\n"
            << "                   --adjacency flat|implicit|auto (CSR snapshot vs\n"
            << "                     virtual adjacency; also on components/threshold/\n"
            << "                     permutation)\n"
            << "                   --frontier batch|permsg (batched frontier search +\n"
            << "                     distance-oracle prewarm A/B)\n"
            << "                   --snapshot-dir DIR (mmap the CSR adjacency from an\n"
            << "                     on-disk snapshot; also on scenario)\n"
            << "scenario:          faultroute scenario FILE.scn [--spec \"k=v; ...\"]\n"
            << "                   [--format jsonl|csv] [--out PATH] [--quick]\n"
            << "                   [--snapshot-dir DIR] [--checkpoint PATH] [--shard K/N]\n"
            << "snapshot:          faultroute snapshot build --topology SPEC --dir DIR\n"
            << "                   faultroute snapshot info --file PATH (or --dir/--topology)\n"
            << "merge:             faultroute merge SHARD.jsonl... [--out PATH]\n"
            << "observability:     --metrics PATH (" << obs::schemas::kMetrics << " JSON) and\n"
            << "                   --trace PATH (Chrome trace-event JSON, for\n"
            << "                   chrome://tracing / Perfetto) on every subcommand but\n"
            << "                   snapshot and merge; traffic also takes --trace-samples N\n"
            << "\nfull reference: docs/CLI.md; scenario grammar: docs/SCENARIOS.md\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const std::string command = argv[1];
  const auto flags = subcommand_flags().find(command);
  if (flags == subcommand_flags().end()) {
    print_usage();
    return 2;
  }
  const std::set<std::string>& known = flags->second;
  try {
    if (command == "scenario") {
      // Optional positional spec-file argument before the --flags.
      std::string file;
      int first_flag = 2;
      if (argc > 2 && std::string(argv[2]).rfind("--", 0) != 0) {
        file = argv[2];
        first_flag = 3;
      }
      return cmd_scenario(file, Args(argc, argv, first_flag, known));
    }
    if (command == "snapshot") {
      // Positional action (build | info) before the --flags.
      if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
        throw std::invalid_argument("snapshot needs an action: build or info");
      }
      return cmd_snapshot(argv[2], Args(argc, argv, 3, known));
    }
    if (command == "merge") {
      // Positional shard-report files interleaved with --flags.
      std::vector<std::string> inputs;
      std::vector<char*> flag_argv = {argv[0], argv[1]};
      for (int i = 2; i < argc; ++i) {
        const std::string token = argv[i];
        if (token.rfind("--", 0) == 0) {
          flag_argv.push_back(argv[i]);
          // --flag VALUE form: keep the value with its flag.
          if (token.find('=') == std::string::npos && i + 1 < argc &&
              std::string(argv[i + 1]).rfind("--", 0) != 0) {
            flag_argv.push_back(argv[++i]);
          }
        } else {
          inputs.push_back(token);
        }
      }
      return cmd_merge(inputs,
                       Args(static_cast<int>(flag_argv.size()), flag_argv.data(), 2, known));
    }
    const Args args(argc, argv, 2, known);
    if (command == "route") return cmd_route(args);
    if (command == "components") return cmd_components(args);
    if (command == "threshold") return cmd_threshold(args);
    if (command == "trials") return cmd_trials(args);
    if (command == "permutation") return cmd_permutation(args);
    return cmd_traffic(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "faultroute %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
