// Dense probe-state suite.
//
// The routing phase keeps each worker's probe state in one epoch-cleared
// ProbeArena, reused across that worker's messages: dense over the
// snapshot's edge ids on the flat adjacency leg, optionally backed by the
// lock-free tri-state SharedProbeCache; key slots on the implicit leg, whose
// workers flush their discoveries into the key-addressed cache in batches. The
// sampler is a deterministic function of the edge key, so neither the
// cache nor the assignment of messages to workers may change anything a run
// reports except the cache's own counters. These tests hold every message
// equal to a fresh single-pair ProbeContext over the raw sampler, and
// 1-worker and 4-worker runs on both legs equal on every aggregate and
// per-message outcome, across a topology × router × workload matrix (local
// and oracle modes, budgets, parallel edges), and pin the cache's counter
// identities: misses == unique_edges() == distinct edges probed, and, on a
// TrafficResult, cache_hits + cache_misses == total_distinct_probes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "graph/flat_adjacency.hpp"
#include "graph/hypercube.hpp"
#include "helpers/fresh_probe_reference.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/rng.hpp"
#include "sim/registry.hpp"
#include "traffic/shared_probe_cache.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace faultroute {
namespace {

// Everything a run reports except the shared cache's counters
// (unique_edges_probed, cache_hits, cache_misses), which the tests check
// against their own identities.
void expect_same_routing_and_delivery(const TrafficResult& a, const TrafficResult& b,
                                      const std::string& label) {
  EXPECT_EQ(a.messages, b.messages) << label;
  EXPECT_EQ(a.routed, b.routed) << label;
  EXPECT_EQ(a.failed_routing, b.failed_routing) << label;
  EXPECT_EQ(a.censored, b.censored) << label;
  EXPECT_EQ(a.invalid_paths, b.invalid_paths) << label;
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.stranded, b.stranded) << label;
  EXPECT_EQ(a.total_distinct_probes, b.total_distinct_probes) << label;
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

struct ProbeStateCase {
  std::string topology;
  std::string router;
  std::string workload;
  double p;
  std::uint64_t budget = 0;  // 0 = unbounded
};

std::string label_of(const ProbeStateCase& spec) {
  return spec.topology + "/" + spec.router + "/" + spec.workload +
         " p=" + std::to_string(spec.p) + " budget=" + std::to_string(spec.budget);
}

// Runs the case and holds every message against a fresh single-pair
// ProbeContext over the raw sampler, so the shared cache (and the pooled
// probe state) is checked transparent on every run.
TrafficResult run_case(const ProbeStateCase& spec, unsigned threads, AdjacencyMode adjacency) {
  const auto graph = sim::make_topology(spec.topology);
  const HashEdgeSampler env(spec.p, derive_seed(2005, 7));
  WorkloadConfig workload = sim::make_workload(spec.workload);
  workload.messages = 96;
  workload.seed = derive_seed(2005, 8);
  const auto messages = generate_workload(*graph, workload);
  const auto factory = [&]() { return sim::make_router(spec.router, *graph); };

  TrafficConfig config;
  config.threads = threads;
  config.adjacency = adjacency;
  if (spec.budget > 0) config.probe_budget = spec.budget;
  TrafficResult result = run_traffic(*graph, env, factory, messages, config);
  testing::expect_matches_fresh_probe_contexts(
      *graph, env, factory, messages, config, result,
      label_of(spec) + " " + std::string(adjacency_mode_name(adjacency)) + " threads " +
          std::to_string(threads));
  return result;
}

// Local-mode routers on structured families, oracle routers on G(n,p),
// budgets tight enough to censor, the butterfly's parallel edges, and a
// Poisson stream — the regimes whose probe patterns differ most.
const std::vector<ProbeStateCase>& probe_state_cases() {
  static const std::vector<ProbeStateCase> cases = {
      {"hypercube:8", "landmark", "permutation", 0.55},
      {"hypercube:8", "best-first", "random-pairs", 0.6},
      {"torus:2:12", "landmark", "poisson:2", 0.7},
      {"de_bruijn:8", "greedy", "random-pairs", 0.55},
      {"butterfly:4", "best-first", "bisection", 0.7},
      {"hypercube:8", "flood", "random-pairs", 0.5, /*budget=*/400},
      {"complete:128", "gnp-oracle", "random-pairs", 0.03},
      {"complete:128", "gnp-local", "random-pairs", 0.03},
  };
  return cases;
}

TEST(DenseProbeState, ArenaReuseIsIndependentOfWorkerAssignment) {
  // Each worker reuses one arena for all its messages, isolated only by the
  // epoch bump: flat arrays on the flat leg, key slots on the implicit leg,
  // where the worker also batches its discoveries into the shared cache.
  // Which messages share an arena (and a flush) changes with the thread
  // count; the results must not, and the two legs must agree.
  for (const auto& spec : probe_state_cases()) {
    const TrafficResult reference = run_case(spec, 1, AdjacencyMode::kFlat);
    for (const AdjacencyMode adjacency : {AdjacencyMode::kFlat, AdjacencyMode::kImplicit}) {
      const std::string label =
          label_of(spec) + " " + std::string(adjacency_mode_name(adjacency));
      const TrafficResult one = run_case(spec, 1, adjacency);
      const TrafficResult four = run_case(spec, 4, adjacency);
      expect_same_routing_and_delivery(reference, one, label + " threads 1");
      expect_same_routing_and_delivery(reference, four, label + " threads 4");
      // The TrafficResult identities: misses are the published edges, hits
      // every other distinct probe.
      for (const TrafficResult* r : {&one, &four}) {
        EXPECT_EQ(r->unique_edges_probed, reference.unique_edges_probed) << label;
        EXPECT_EQ(r->cache_misses, r->unique_edges_probed) << label;
        EXPECT_EQ(r->cache_hits + r->cache_misses, r->total_distinct_probes) << label;
      }
    }
  }
}

TEST(DenseProbeState, DiscoveryFlushesAreIndependentOfThreadCount) {
  // On the implicit leg each worker records its memo misses in the shared
  // cache in batches of 4,096 keys plus one last flush. This batch is big
  // enough that every worker flushes mid-run; the cache counters are a set
  // union, so they must not depend on the thread count (hence on how keys
  // were batched) and must equal the flat leg's lock-free CAS cache.
  const auto graph = sim::make_topology("hypercube:16");
  const HashEdgeSampler env(0.7, derive_seed(2005, 7));
  WorkloadConfig workload = sim::make_workload("permutation");
  workload.messages = 2048;
  workload.seed = derive_seed(2005, 8);
  const auto messages = generate_workload(*graph, workload);
  const auto factory = [&]() { return sim::make_router("landmark", *graph); };
  const auto run = [&](unsigned threads, AdjacencyMode adjacency) {
    TrafficConfig config;
    config.threads = threads;
    config.adjacency = adjacency;
    return run_traffic(*graph, env, factory, messages, config);
  };
  const TrafficResult flat = run(4, AdjacencyMode::kFlat);
  ASSERT_EQ(flat.routed, messages.size());
  EXPECT_GT(flat.total_distinct_probes, 4u * 4u * 4096u);  // several flushes per worker
  for (const unsigned threads : {1u, 2u, 4u}) {
    const TrafficResult implicit = run(threads, AdjacencyMode::kImplicit);
    const std::string label = "implicit threads " + std::to_string(threads);
    expect_same_routing_and_delivery(flat, implicit, label);
    EXPECT_EQ(implicit.unique_edges_probed, flat.unique_edges_probed) << label;
    EXPECT_EQ(implicit.cache_misses, flat.cache_misses) << label;
    EXPECT_EQ(implicit.cache_hits, flat.cache_hits) << label;
  }
}

// --------------------------------------------------- SharedProbeCache counters

TEST(SharedProbeCacheCounters, MissesEqualDistinctEdgesUnderThreadRaces) {
  // Eight threads hammer the same edge set concurrently, so first-probe
  // races are plentiful, on both the edge-id-addressed and the key-addressed
  // cache. A miss is counted only on actual publication, so misses ==
  // unique_edges() == the edge count; a cache that counts a miss for both
  // racers of a first probe breaks that. Every answer must be the base
  // sampler's.
  const Hypercube g(8);
  const HashEdgeSampler base(0.5, 3);
  const SharedProbeCache indexed(base, g.flat_adjacency());
  const SharedProbeCache keyed(base, g);
  for (const SharedProbeCache* cache : {&indexed, &keyed}) {
    constexpr int kThreads = 8;
    constexpr int kRounds = 3;
    std::atomic<std::uint64_t> wrong{0};
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int w = 0; w < kThreads; ++w) {
      pool.emplace_back([&] {
        for (int round = 0; round < kRounds; ++round) {
          for (VertexId v = 0; v < g.num_vertices(); ++v) {
            for (int i = 0; i < g.degree(v); ++i) {
              const EdgeKey key = g.edge_key(v, i);
              if (cache->is_open(key) != base.is_open(key)) wrong.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& t : pool) t.join();
    EXPECT_EQ(wrong.load(), 0U);
    EXPECT_EQ(cache->unique_edges(), g.num_edges());
  }
}

TEST(SharedProbeCacheCounters, SequentialCountsAreExact) {
  const Hypercube g(5);
  const HashEdgeSampler base(0.5, 9);
  const FlatAdjacency& flat = g.flat_adjacency();
  const SharedProbeCache indexed(base, flat);
  const SharedProbeCache keyed(base, g);
  // One sweep over both directions of every edge: the first direction is a
  // miss, the reverse one (same edge id, same key) is not.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int i = 0; i < g.degree(v); ++i) {
      (void)indexed.is_open_indexed(flat.edge_id(v, i), g.edge_key(v, i));
      (void)keyed.is_open(g.edge_key(v, i));
    }
    EXPECT_EQ(indexed.unique_edges(), keyed.unique_edges()) << "after vertex " << v;
  }
  EXPECT_EQ(indexed.unique_edges(), g.num_edges());
  EXPECT_EQ(keyed.unique_edges(), g.num_edges());
}

}  // namespace
}  // namespace faultroute
