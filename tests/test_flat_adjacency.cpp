// Flat CSR adjacency snapshot suite.
//
// The snapshot (graph/flat_adjacency.hpp) is a pure representation change:
// every slot of every row must agree with the implicit virtual interface,
// and every pipeline that can run over it — routing, traffic, percolation
// analyses, permutation batches — must produce bit-identical results under
// AdjacencyMode::kFlat and kImplicit. This suite pins both: property tests
// across every registered topology family (including the k=2 wrapped
// butterfly's parallel edges), and whole-pipeline differential runs across
// routers, workloads, budgets, and thread counts. The satellite pieces ride
// along: the indexed-memo samplers and the dense edge-load accumulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/edge_load.hpp"
#include "core/permutation_routing.hpp"
#include "core/probe_context.hpp"
#include "graph/channel_index.hpp"
#include "graph/flat_adjacency.hpp"
#include "graph/hypercube.hpp"
#include "percolation/chemical_distance.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/threshold.hpp"
#include "random/rng.hpp"
#include "random/splitmix64.hpp"
#include "scenario/spec.hpp"
#include "sim/registry.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace faultroute {
namespace {

/// Every registered topology family at unit-test scale; butterfly:2 is the
/// parallel-edge stress case (distinct edges between the same endpoints).
const std::vector<std::string> kFamilies = {
    "hypercube:5",  "mesh:2:6",           "torus:2:6", "double_tree:4",
    "complete:24",  "de_bruijn:6",        "shuffle_exchange:6",
    "butterfly:4",  "butterfly:2",        "ccc:4",     "cycle_matching:64:7",
};

TEST(FlatAdjacency, AgreesRowForRowWithVirtualInterfaceAcrossFamilies) {
  for (const std::string& spec : kFamilies) {
    const auto graph = sim::make_topology(spec);
    const ChannelIndex& index = graph->channel_index();
    const FlatAdjacency& flat = graph->flat_adjacency();

    EXPECT_EQ(flat.num_vertices(), graph->num_vertices()) << spec;
    EXPECT_EQ(flat.num_channels(), index.num_channels()) << spec;
    EXPECT_EQ(flat.num_edge_ids(), index.num_edge_ids()) << spec;
    EXPECT_EQ(&flat.graph(), graph.get()) << spec;

    for (VertexId v = 0; v < graph->num_vertices(); ++v) {
      const int deg = graph->degree(v);
      ASSERT_EQ(flat.degree(v), deg) << spec << " v=" << v;
      ASSERT_EQ(flat.row_end(v) - flat.row_begin(v), static_cast<std::uint64_t>(deg))
          << spec << " v=" << v;
      for (int i = 0; i < deg; ++i) {
        const VertexId w = graph->neighbor(v, i);
        const EdgeKey key = graph->edge_key(v, i);
        ASSERT_EQ(flat.neighbor(v, i), w) << spec << " v=" << v << " i=" << i;
        ASSERT_EQ(flat.edge_key(v, i), key) << spec << " v=" << v << " i=" << i;
        const std::uint32_t channel = index.channel_of(v, i);
        ASSERT_EQ(flat.channel_of(v, i), channel) << spec << " v=" << v << " i=" << i;
        ASSERT_EQ(flat.edge_id(v, i), index.edge_id_of(channel))
            << spec << " v=" << v << " i=" << i;
        // Row-position accessors address the same slot as (v, i).
        const std::uint64_t pos = flat.row_begin(v) + static_cast<std::uint64_t>(i);
        ASSERT_EQ(flat.neighbor_at(pos), w) << spec;
        ASSERT_EQ(flat.edge_key_at(pos), key) << spec;
        ASSERT_EQ(flat.edge_id_at(pos), flat.edge_id(v, i)) << spec;
        // The invertible-key contract round-trips through the snapshot.
        const EdgeEndpoints ends = graph->endpoints(key);
        const std::set<VertexId> expected{v, w};
        const std::set<VertexId> actual{ends.a, ends.b};
        ASSERT_EQ(actual, expected) << spec << " key=" << key;
      }
    }
  }
}

TEST(FlatAdjacency, SnapshotIsCachedOnTheTopology) {
  const Hypercube cube(5);
  const FlatAdjacency& first = cube.flat_adjacency();
  const FlatAdjacency& second = cube.flat_adjacency();
  EXPECT_EQ(&first, &second);
}

TEST(FlatAdjacency, EdgeIndexOfMatchesTopologyOverload) {
  for (const std::string spec : {"hypercube:5", "butterfly:2", "cycle_matching:64:7"}) {
    const auto graph = sim::make_topology(spec);
    const FlatAdjacency& flat = graph->flat_adjacency();
    Rng rng(11);
    for (int trial = 0; trial < 200; ++trial) {
      const VertexId u = uniform_below(rng, graph->num_vertices());
      const VertexId v = uniform_below(rng, graph->num_vertices());
      EXPECT_EQ(edge_index_of(flat, u, v), edge_index_of(*graph, u, v))
          << spec << " u=" << u << " v=" << v;
    }
    // Every actual neighbor resolves, through both the free function and
    // the view.
    const AdjacencyView view(*graph, &flat);
    for (VertexId u = 0; u < graph->num_vertices(); ++u) {
      for (int i = 0; i < graph->degree(u); ++i) {
        const VertexId w = graph->neighbor(u, i);
        EXPECT_GE(edge_index_of(flat, u, w), 0) << spec;
        EXPECT_EQ(view.edge_index_of(u, w), edge_index_of(*graph, u, w)) << spec;
      }
    }
  }
}

TEST(FlatAdjacency, ResolveAdjacencyHonoursModeAndBudget) {
  const Hypercube cube(5);  // 32 vertices, 80 edges, 160 directed channels
  EXPECT_EQ(resolve_adjacency(cube, AdjacencyMode::kFlat), &cube.flat_adjacency());
  EXPECT_EQ(resolve_adjacency(cube, AdjacencyMode::kImplicit), nullptr);
  EXPECT_EQ(resolve_adjacency(cube, AdjacencyMode::kAuto, 160), &cube.flat_adjacency());
  EXPECT_EQ(resolve_adjacency(cube, AdjacencyMode::kAuto, 159), nullptr);
  // The default budget is 2^22 channels: torus:2:64 (16,384 channels) and
  // complete:512 (261,632) stay flat; hypercube:19 (9,961,472) goes implicit
  // and is never built to find that out.
  EXPECT_EQ(kDefaultFlatBudgetChannels, 1ULL << 22);
  const auto big = sim::make_topology("hypercube:19");
  EXPECT_EQ(resolve_adjacency(*big, AdjacencyMode::kAuto), nullptr);
  EXPECT_NE(resolve_adjacency(*sim::make_topology("complete:512"), AdjacencyMode::kAuto),
            nullptr);
}

TEST(FlatAdjacency, ModeNamesRoundTripAndRejectGarbage) {
  for (const AdjacencyMode mode :
       {AdjacencyMode::kFlat, AdjacencyMode::kImplicit, AdjacencyMode::kAuto}) {
    EXPECT_EQ(parse_adjacency_mode(adjacency_mode_name(mode)), mode);
  }
  EXPECT_THROW((void)parse_adjacency_mode("dense"), std::invalid_argument);
  EXPECT_THROW((void)parse_adjacency_mode(""), std::invalid_argument);
}

// ---------------------------------------------------------------- probing

/// Everything a run of ProbeContexts lets a router observe: one event per
/// probe (closed, open, locality throw, budget throw) with the distinct and
/// total counts after it, then each message's reach over every vertex.
struct ProbeTrace {
  std::vector<int> events;
  std::vector<std::uint64_t> counts;
  std::vector<bool> reached;
  bool operator==(const ProbeTrace&) const = default;
};

/// Routes six consecutive messages through one probe-state backend (hash
/// when `arena` is null, the arena's flat arrays or key slots otherwise;
/// the arena is reused across the messages, as a traffic worker does). Each
/// message mixes frontier probes with probes of arbitrary vertices, so kLocal
/// runs also throw LocalityViolation, and every third message has a budget
/// tight enough to throw ProbeBudgetExceeded.
ProbeTrace drive_messages(const Topology& graph, const EdgeSampler& env, RoutingMode mode,
                          ProbeArena* arena, const FlatAdjacency* flat) {
  ProbeTrace trace;
  const VertexId n = graph.num_vertices();
  for (std::uint64_t m = 0; m < 6; ++m) {
    const VertexId source = (m * 11) % n;
    const std::optional<std::uint64_t> budget =
        m % 3 == 2 ? std::optional<std::uint64_t>(12) : std::nullopt;
    ProbeContext ctx(graph, env, source, mode, budget, arena, flat);
    SplitMix64 rng(derive_seed(77, m));
    std::vector<VertexId> frontier{source};
    for (int step = 0; step < 300; ++step) {
      const VertexId v = step % 3 == 0 ? rng() % n : frontier[rng() % frontier.size()];
      const int i = static_cast<int>(rng() % static_cast<std::uint64_t>(graph.degree(v)));
      int event = 0;
      try {
        if (ctx.probe(v, i)) {
          event = 1;
          frontier.push_back(graph.neighbor(v, i));
        }
      } catch (const LocalityViolation&) {
        event = 2;
      } catch (const ProbeBudgetExceeded&) {
        event = 3;
      }
      trace.events.push_back(event);
      trace.counts.push_back(ctx.distinct_probes());
      trace.counts.push_back(ctx.total_probes());
    }
    for (VertexId v = 0; v < n; ++v) trace.reached.push_back(ctx.is_reached(v));
  }
  return trace;
}

TEST(FlatAdjacency, ProbeContextFlatPathMatchesImplicitOnBothBackends) {
  const auto graph = sim::make_topology("butterfly:3");
  const FlatAdjacency& flat = graph->flat_adjacency();
  const HashEdgeSampler env(0.6, 99);
  // Drive an identical probe sequence through the four backend
  // combinations (hash or arena probe state, over flat or implicit
  // adjacency) and hold every answer and counter equal.
  const auto drive = [&](ProbeArena* arena, const FlatAdjacency* snapshot) {
    ProbeContext ctx(*graph, env, 0, RoutingMode::kOracle, std::nullopt, arena, snapshot);
    std::vector<bool> answers;
    for (VertexId v = 0; v < graph->num_vertices(); ++v) {
      for (int i = 0; i < graph->degree(v); ++i) {
        answers.push_back(ctx.probe(v, i));
        answers.push_back(ctx.probe(v, i));  // memo hit
      }
    }
    answers.push_back(ctx.probe_between(0, graph->neighbor(0, 0)));
    // Every slot probed twice, plus the probe_between; distinct counts each
    // undirected edge once however many slots address it.
    EXPECT_EQ(ctx.total_probes(), 2ull * flat.num_channels() + 1);
    EXPECT_EQ(ctx.distinct_probes(), flat.num_edge_ids());
    return std::make_pair(answers, ctx.distinct_probes());
  };
  ProbeArena flat_arena;
  ProbeArena implicit_arena;
  const auto implicit_hash = drive(nullptr, nullptr);
  EXPECT_EQ(implicit_hash, drive(nullptr, &flat));
  EXPECT_EQ(implicit_hash, drive(&flat_arena, &flat));
  EXPECT_EQ(implicit_hash, drive(&implicit_arena, nullptr));
  EXPECT_EQ(flat.graph().num_vertices(), graph->num_vertices());

  // An arena over implicit adjacency (key slots) must equal the arena-less
  // hash backend in every observable — answers, distinct and total counts,
  // reach, budget and locality throws — in both modes, across consecutive
  // messages that reuse one arena; so must the flat combinations.
  for (const RoutingMode mode : {RoutingMode::kLocal, RoutingMode::kOracle}) {
    const ProbeTrace reference = drive_messages(*graph, env, mode, nullptr, nullptr);
    const auto count = [&](int event) {
      return std::count(reference.events.begin(), reference.events.end(), event);
    };
    EXPECT_GT(count(0), 0);
    EXPECT_GT(count(1), 0);
    EXPECT_EQ(count(2) > 0, mode == RoutingMode::kLocal);
    EXPECT_GT(count(3), 0);
    EXPECT_EQ(drive_messages(*graph, env, mode, &implicit_arena, nullptr), reference);
    EXPECT_EQ(drive_messages(*graph, env, mode, nullptr, &flat), reference);
    EXPECT_EQ(drive_messages(*graph, env, mode, &flat_arena, &flat), reference);
  }
}

// ---------------------------------------------------------------- traffic

void expect_identical(const TrafficResult& a, const TrafficResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.messages, b.messages) << label;
  EXPECT_EQ(a.routed, b.routed) << label;
  EXPECT_EQ(a.failed_routing, b.failed_routing) << label;
  EXPECT_EQ(a.censored, b.censored) << label;
  EXPECT_EQ(a.invalid_paths, b.invalid_paths) << label;
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.stranded, b.stranded) << label;
  EXPECT_EQ(a.total_distinct_probes, b.total_distinct_probes) << label;
  EXPECT_EQ(a.unique_edges_probed, b.unique_edges_probed) << label;
  // The flat leg's edge-id-addressed cache and the implicit leg's
  // key-addressed one must count alike, and both obey the TrafficResult
  // identities.
  EXPECT_EQ(a.cache_hits, b.cache_hits) << label;
  EXPECT_EQ(a.cache_misses, b.cache_misses) << label;
  for (const TrafficResult* r : {&a, &b}) {
    EXPECT_EQ(r->cache_misses, r->unique_edges_probed) << label;
    EXPECT_EQ(r->cache_hits + r->cache_misses, r->total_distinct_probes) << label;
  }
  EXPECT_EQ(a.max_edge_load, b.max_edge_load) << label;
  EXPECT_EQ(a.mean_edge_load, b.mean_edge_load) << label;  // exact: same doubles
  EXPECT_EQ(a.edges_used, b.edges_used) << label;
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.mean_queueing_delay, b.mean_queueing_delay) << label;
  EXPECT_EQ(a.max_queueing_delay, b.max_queueing_delay) << label;
  EXPECT_EQ(a.mean_path_edges, b.mean_path_edges) << label;
  EXPECT_EQ(a.sim_steps, b.sim_steps) << label;
  EXPECT_EQ(a.admission_events, b.admission_events) << label;
  EXPECT_EQ(a.transmissions, b.transmissions) << label;
  EXPECT_EQ(a.peak_active_channels, b.peak_active_channels) << label;
  EXPECT_EQ(a.channels, b.channels) << label;
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << label;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const MessageOutcome& x = a.outcomes[i];
    const MessageOutcome& y = b.outcomes[i];
    ASSERT_EQ(x.routed, y.routed) << label << " msg " << i;
    ASSERT_EQ(x.censored, y.censored) << label << " msg " << i;
    ASSERT_EQ(x.delivered, y.delivered) << label << " msg " << i;
    ASSERT_EQ(x.distinct_probes, y.distinct_probes) << label << " msg " << i;
    ASSERT_EQ(x.path_edges, y.path_edges) << label << " msg " << i;
    ASSERT_EQ(x.finish_time, y.finish_time) << label << " msg " << i;
    ASSERT_EQ(x.queueing_delay, y.queueing_delay) << label << " msg " << i;
  }
}

struct EquivalenceCase {
  std::string topology;
  std::string router;
  std::string workload;
  double p;
  std::uint64_t budget = 0;  // 0 = unbounded
};

void check_flat_equals_implicit(const EquivalenceCase& spec) {
  const auto graph = sim::make_topology(spec.topology);
  WorkloadConfig workload = sim::make_workload(spec.workload);
  workload.messages = 96;
  workload.seed = 5;
  const auto messages = generate_workload(*graph, workload);
  const HashEdgeSampler env(spec.p, 77);
  const auto factory = [&]() { return sim::make_router(spec.router, *graph); };

  // The acceptance bar: bit-identical under every thread count.
  for (const unsigned threads : {1u, 2u, 4u}) {
    TrafficConfig config;
    config.threads = threads;
    if (spec.budget > 0) config.probe_budget = spec.budget;

    TrafficConfig flat = config;
    flat.adjacency = AdjacencyMode::kFlat;
    TrafficConfig implicit = config;
    implicit.adjacency = AdjacencyMode::kImplicit;

    const TrafficResult a = run_traffic(*graph, env, factory, messages, flat);
    const TrafficResult b = run_traffic(*graph, env, factory, messages, implicit);
    expect_identical(a, b,
                     spec.topology + "/" + spec.router + "/" + spec.workload +
                         " threads=" + std::to_string(threads));
  }
}

TEST(FlatAdjacencyTraffic, BitIdenticalAcrossRoutersWorkloadsAndThreads) {
  check_flat_equals_implicit({"hypercube:7", "landmark", "permutation", 0.55});
  check_flat_equals_implicit({"hypercube:7", "greedy", "hotspot:0", 0.7});
  check_flat_equals_implicit({"torus:2:8", "best-first", "poisson:2", 0.65});
  check_flat_equals_implicit({"de_bruijn:7", "flood", "random-pairs", 0.5, 600});
  check_flat_equals_implicit({"butterfly:3", "hybrid", "bisection", 0.6});
  check_flat_equals_implicit({"ccc:4", "bidirectional", "random-pairs", 0.6});
  check_flat_equals_implicit({"complete:48", "gnp-local", "random-pairs", 0.05});
}

TEST(FlatAdjacencyTraffic, AutoModeMatchesExplicitFlatOnSmallGraphs) {
  const auto graph = sim::make_topology("hypercube:6");
  WorkloadConfig workload = sim::make_workload("permutation");
  workload.messages = 64;
  workload.seed = 3;
  const auto messages = generate_workload(*graph, workload);
  const HashEdgeSampler env(0.6, 13);
  const auto factory = [&]() { return sim::make_router("landmark", *graph); };
  TrafficConfig auto_config;  // default adjacency = kAuto
  TrafficConfig flat_config;
  flat_config.adjacency = AdjacencyMode::kFlat;
  expect_identical(run_traffic(*graph, env, factory, messages, auto_config),
                   run_traffic(*graph, env, factory, messages, flat_config), "auto-vs-flat");
}

TEST(FlatAdjacencyTraffic, PermutationBatchMatchesAcrossBackends) {
  const auto graph = sim::make_topology("de_bruijn:6");
  const HashEdgeSampler env(0.6, 21);
  const auto factory = [&]() { return sim::make_router("landmark", *graph); };
  PermutationRoutingConfig flat_config;
  flat_config.pairs = 64;
  flat_config.adjacency = AdjacencyMode::kFlat;
  PermutationRoutingConfig implicit_config = flat_config;
  implicit_config.adjacency = AdjacencyMode::kImplicit;
  const auto a = route_permutation(*graph, env, factory, flat_config);
  const auto b = route_permutation(*graph, env, factory, implicit_config);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.routed, b.routed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.skipped_disconnected, b.skipped_disconnected);
  EXPECT_EQ(a.total_probes, b.total_probes);
  EXPECT_EQ(a.total_path_edges, b.total_path_edges);
  EXPECT_EQ(a.max_edge_load, b.max_edge_load);
  EXPECT_EQ(a.mean_edge_load, b.mean_edge_load);
}

// ------------------------------------------------------------- percolation

TEST(FlatAdjacencyPercolation, ClusterAnalysesMatchAcrossBackends) {
  for (const std::string& spec : kFamilies) {
    for (const double p : {0.3, 0.6}) {
      const auto graph = sim::make_topology(spec);
      const HashEdgeSampler env(p, 4242);

      const ComponentSummary flat = analyze_components(*graph, env, AdjacencyMode::kFlat);
      const ComponentSummary implicit =
          analyze_components(*graph, env, AdjacencyMode::kImplicit);
      EXPECT_EQ(flat.num_vertices, implicit.num_vertices) << spec;
      EXPECT_EQ(flat.num_open_edges, implicit.num_open_edges) << spec;
      EXPECT_EQ(flat.num_components, implicit.num_components) << spec;
      EXPECT_EQ(flat.largest, implicit.largest) << spec;
      EXPECT_EQ(flat.second_largest, implicit.second_largest) << spec;

      // BFS visit order, connectivity verdicts, and shortest open paths are
      // equal query-for-query.
      const VertexId far = graph->num_vertices() - 1;
      EXPECT_EQ(open_cluster_of(*graph, env, 0, 0, AdjacencyMode::kFlat),
                open_cluster_of(*graph, env, 0, 0, AdjacencyMode::kImplicit))
          << spec;
      EXPECT_EQ(open_cluster_of(*graph, env, 0, 5, AdjacencyMode::kFlat),
                open_cluster_of(*graph, env, 0, 5, AdjacencyMode::kImplicit))
          << spec;
      EXPECT_EQ(open_connected(*graph, env, 0, far, 0, AdjacencyMode::kFlat),
                open_connected(*graph, env, 0, far, 0, AdjacencyMode::kImplicit))
          << spec;
      EXPECT_EQ(open_connected(*graph, env, 0, far, 4, AdjacencyMode::kFlat),
                open_connected(*graph, env, 0, far, 4, AdjacencyMode::kImplicit))
          << spec;
      const ChemicalPathResult flat_path =
          chemical_path(*graph, env, 0, far, 0, AdjacencyMode::kFlat);
      const ChemicalPathResult implicit_path =
          chemical_path(*graph, env, 0, far, 0, AdjacencyMode::kImplicit);
      EXPECT_EQ(flat_path.distance, implicit_path.distance) << spec;
      EXPECT_EQ(flat_path.path, implicit_path.path) << spec;
    }
  }

  // Sweep scale: full cluster decompositions of 2^11-vertex families and a
  // 48x48 torus around their thresholds, then shortest open paths between
  // random pairs of a supercritical torus.
  std::uint64_t index = 0;
  for (const char* spec : {"hypercube:11", "torus:2:48", "de_bruijn:11"}) {
    const auto graph = sim::make_topology(spec);
    for (const double p : {0.3, 0.5, 0.7}) {
      const HashEdgeSampler env(p, derive_seed(20050701, index++));
      const ComponentSummary flat = analyze_components(*graph, env, AdjacencyMode::kFlat);
      const ComponentSummary implicit =
          analyze_components(*graph, env, AdjacencyMode::kImplicit);
      EXPECT_EQ(flat.num_open_edges, implicit.num_open_edges) << spec << " p=" << p;
      EXPECT_EQ(flat.num_components, implicit.num_components) << spec << " p=" << p;
      EXPECT_EQ(flat.largest, implicit.largest) << spec << " p=" << p;
      EXPECT_EQ(flat.second_largest, implicit.second_largest) << spec << " p=" << p;
    }
  }
  const auto torus = sim::make_topology("torus:2:32");
  std::uint64_t env_index = 0;
  for (const double p : {0.55, 0.65, 0.8}) {
    const HashEdgeSampler env(p, derive_seed(20050701, 1000 + env_index++));
    Rng pair_rng(7);
    for (int k = 0; k < 32; ++k) {
      const VertexId u = uniform_below(pair_rng, torus->num_vertices());
      const VertexId v = uniform_below(pair_rng, torus->num_vertices());
      const ChemicalPathResult flat_path =
          chemical_path(*torus, env, u, v, 0, AdjacencyMode::kFlat);
      const ChemicalPathResult implicit_path =
          chemical_path(*torus, env, u, v, 0, AdjacencyMode::kImplicit);
      EXPECT_EQ(flat_path.distance, implicit_path.distance) << u << "->" << v << " p=" << p;
      EXPECT_EQ(flat_path.path, implicit_path.path) << u << "->" << v << " p=" << p;
    }
  }
}

TEST(FlatAdjacencyPercolation, LargestClusterOrderMatchesAcrossBackends) {
  const auto graph = sim::make_topology("torus:2:8");
  const auto flat_order = largest_cluster_order(*graph, AdjacencyMode::kFlat);
  const auto implicit_order = largest_cluster_order(*graph, AdjacencyMode::kImplicit);
  for (const double p : {0.2, 0.5, 0.8}) {
    EXPECT_EQ(flat_order(p, 9), implicit_order(p, 9)) << p;
  }
}

// -------------------------------------------------------------- edge load

TEST(DenseEdgeLoad, IdAndKeyAccumulationsSummarizeIdentically) {
  const auto graph = sim::make_topology("butterfly:2");
  const FlatAdjacency& flat = graph->flat_adjacency();
  std::unordered_map<EdgeKey, std::uint64_t> by_key;
  std::vector<std::uint64_t> by_id(flat.num_edge_ids(), 0);
  std::vector<std::uint32_t> used;
  Rng rng(17);
  for (int hit = 0; hit < 500; ++hit) {
    const VertexId v = uniform_below(rng, graph->num_vertices());
    const int deg = graph->degree(v);
    if (deg == 0) continue;
    const int i = static_cast<int>(uniform_below(rng, static_cast<std::uint64_t>(deg)));
    ++by_key[flat.edge_key(v, i)];
    const std::uint32_t id = flat.edge_id(v, i);
    if (by_id[id]++ == 0) used.push_back(id);
  }
  const EdgeLoadStats keyed = summarize_edge_load(by_key);
  const EdgeLoadStats dense = summarize_edge_id_load(by_id, used);
  EXPECT_EQ(dense.max_load, keyed.max_load);
  EXPECT_EQ(dense.edges_used, keyed.edges_used);
  EXPECT_EQ(dense.total, keyed.total);
  EXPECT_EQ(dense.mean_load, keyed.mean_load);
}

// ---------------------------------------------------------------- scenario

TEST(ScenarioAdjacencyKey, ParsesValidatesAndRejectsGarbage) {
  const scenario::ScenarioSpec spec =
      scenario::parse_scenario("topology = hypercube:5; adjacency = implicit");
  EXPECT_EQ(spec.adjacency, "implicit");
  EXPECT_EQ(scenario::parse_scenario("topology = hypercube:5").adjacency, "auto");
  EXPECT_THROW((void)scenario::parse_scenario("topology = hypercube:5; adjacency = dense"),
               std::invalid_argument);
}

}  // namespace
}  // namespace faultroute
