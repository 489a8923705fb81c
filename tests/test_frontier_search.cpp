// Batch-vs-per-message frontier equivalence suite.
//
// FrontierMode::kBatch reroutes flood / bidirectional batches through the
// block executor (traffic/frontier_search.cpp: 64 messages share bitset
// probe-memo words per worker) and hands metric routers precomputed
// DistanceOracle columns instead of one BFS per graph.distance call. All of
// it is advertised as a pure acceleration, so this suite is the pin: it
// flips TrafficConfig::frontier across a topology × router × workload
// matrix — both adjacency modes, the shared cache on and off, budgets tight
// enough to censor mid-search, threads 1, 2 and 4 — and holds the two runs
// equal on every aggregate, every exact double, and every per-message
// outcome. It also checks the axes compose: batch/flat against
// permsg/implicit end-to-end.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "random/rng.hpp"
#include "sim/registry.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace faultroute {
namespace {

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
  EXPECT_EQ(a.cache_hits, b.cache_hits) << label;
  EXPECT_EQ(a.cache_misses, b.cache_misses) << label;
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

void check_batch_equals_permsg(const EquivalenceCase& spec, const std::string& adjacency,
                               unsigned threads, bool shared_cache = true) {
  const auto graph = sim::make_topology(spec.topology);
  const HashEdgeSampler env(spec.p, derive_seed(2005, 7));
  WorkloadConfig workload = sim::make_workload(spec.workload);
  workload.messages = 96;
  workload.seed = derive_seed(2005, 8);
  const auto messages = generate_workload(*graph, workload);
  const auto factory = [&]() { return sim::make_router(spec.router, *graph); };

  TrafficConfig config;
  config.threads = threads;
  config.use_shared_cache = shared_cache;
  config.adjacency = parse_adjacency_mode(adjacency);
  if (spec.budget > 0) config.probe_budget = spec.budget;

  TrafficConfig batch = config;
  batch.frontier = FrontierMode::kBatch;
  TrafficConfig permsg = config;
  permsg.frontier = FrontierMode::kPerMessage;

  expect_identical(run_traffic(*graph, env, factory, messages, batch),
                   run_traffic(*graph, env, factory, messages, permsg),
                   spec.topology + "/" + spec.router + "/" + spec.workload +
                       " p=" + std::to_string(spec.p) +
                       " budget=" + std::to_string(spec.budget) +
                       (shared_cache ? " cached" : " uncached") + " adjacency=" +
                       adjacency + " threads=" + std::to_string(threads));
}

// The batch executor's own families (flood and bidirectional get the block
// executor; everything else must pass through untouched). Budgeted flood
// cells censor mid-BFS, so the executor's probe ordering is pinned at the
// exact probe where the budget dies. 96 messages spans two 64-message
// blocks, exercising the block boundary.
const std::vector<EquivalenceCase> kExecutorCases = {
    {"hypercube:8", "flood", "random-pairs", 0.5, /*budget=*/400},
    {"hypercube:8", "flood", "permutation", 0.55},
    {"de_bruijn:8", "flood-target-first", "random-pairs", 0.55},
    {"butterfly:4", "flood-target-first", "bisection", 0.6, /*budget=*/600},
    {"shuffle_exchange:8", "flood", "random-pairs", 0.6},
    {"ccc:5", "bidirectional", "random-pairs", 0.6},
    {"hypercube:8", "bidirectional", "permutation", 0.5, /*budget=*/500},
    {"complete:128", "bidirectional", "random-pairs", 0.03},
};

// Metric routers ride the DistanceOracle columns in batch mode. de Bruijn /
// shuffle-exchange / CCC have no closed-form metric (the oracle's whole
// audience); the hypercube cell checks the closed-form bypass, and the
// torus cell a Poisson stream.
const std::vector<EquivalenceCase> kOracleCases = {
    {"de_bruijn:8", "greedy", "random-pairs", 0.55},
    {"de_bruijn:8", "best-first", "random-pairs", 0.6, /*budget=*/2000},
    {"shuffle_exchange:8", "hybrid", "random-pairs", 0.6},
    {"ccc:5", "best-first", "permutation", 0.65},
    {"butterfly:4", "best-first", "bisection", 0.7},
    {"hypercube:8", "best-first", "random-pairs", 0.6},
    {"torus:2:12", "hybrid", "poisson:2", 0.7},
};

// Routers the batch mode must leave exactly alone (landmark keeps
// graph.shortest_path for path identity; the G(n,p) specialists are their
// own algorithms). Double-tree routers only route between the two roots,
// so they are exercised via the scenario-level tests instead.
const std::vector<EquivalenceCase> kPassThroughCases = {
    {"hypercube:8", "landmark", "permutation", 0.55},
    {"complete:128", "gnp-oracle", "random-pairs", 0.03},
    {"complete:128", "gnp-local", "random-pairs", 0.03},
};

TEST(FrontierSearch, BatchExecutorMatchesPerMessageRouting) {
  for (const auto& spec : kExecutorCases) {
    check_batch_equals_permsg(spec, "flat", /*threads=*/1);
  }
}

TEST(FrontierSearch, OracleBackedRoutersMatchPerMessageRouting) {
  for (const auto& spec : kOracleCases) {
    check_batch_equals_permsg(spec, "flat", /*threads=*/1);
  }
}

TEST(FrontierSearch, PassThroughRoutersAreUnaffected) {
  for (const auto& spec : kPassThroughCases) {
    check_batch_equals_permsg(spec, "flat", /*threads=*/1);
  }
}

TEST(FrontierSearch, MatchesWithoutTheSharedCache) {
  // With the cache off the executor's is_open_indexed calls reach the raw
  // sampler's default implementation, exactly as ProbeContext's do; both
  // must agree with their per-message twins.
  check_batch_equals_permsg({"de_bruijn:8", "flood", "random-pairs", 0.55}, "flat",
                            /*threads=*/1, /*shared_cache=*/false);
  check_batch_equals_permsg({"hypercube:8", "bidirectional", "permutation", 0.5, 500}, "flat",
                            /*threads=*/1, /*shared_cache=*/false);
  check_batch_equals_permsg({"de_bruijn:8", "greedy", "random-pairs", 0.55}, "flat",
                            /*threads=*/1, /*shared_cache=*/false);
}

TEST(FrontierSearch, MatchesAcrossAdjacencyModes) {
  // Implicit adjacency has no CSR snapshot, so batch mode must fall back to
  // per-message routing there — and still produce the same results as every
  // other (mode, adjacency) combination.
  check_batch_equals_permsg({"de_bruijn:8", "flood", "random-pairs", 0.55},
                            "implicit", /*threads=*/1);
  check_batch_equals_permsg({"de_bruijn:8", "best-first", "random-pairs", 0.6},
                            "implicit", /*threads=*/1);
  check_batch_equals_permsg({"ccc:5", "bidirectional", "random-pairs", 0.6},
                            "auto", /*threads=*/1);
}

TEST(FrontierSearch, MatchesUnderThreadedRouting) {
  // Blocks are the parallel unit in batch mode; messages must not care which
  // worker's block they land in — at 2 workers and past the oversubscription
  // point (4 workers on smaller machines).
  for (const unsigned threads : {2u, 4u}) {
    check_batch_equals_permsg({"hypercube:8", "flood", "random-pairs", 0.5, 400},
                              "flat", threads);
    check_batch_equals_permsg({"de_bruijn:8", "best-first", "random-pairs", 0.6},
                              "flat", threads);
    check_batch_equals_permsg({"ccc:5", "bidirectional", "random-pairs", 0.6},
                              "flat", threads);
  }
}

TEST(FrontierSearch, BatchAxisComposesWithTheOtherABAxes) {
  // Fully crossed extremes: batch/flat (the fast path everything defaults
  // to) against permsg/implicit (every accelerator off). One executor case
  // and one oracle case.
  const EquivalenceCase cases[] = {
      {"de_bruijn:8", "flood-target-first", "random-pairs", 0.55},
      {"de_bruijn:8", "hybrid", "random-pairs", 0.55},
  };
  for (const auto& spec : cases) {
    const auto graph = sim::make_topology(spec.topology);
    const HashEdgeSampler env(spec.p, derive_seed(2005, 7));
    WorkloadConfig workload = sim::make_workload(spec.workload);
    workload.messages = 96;
    workload.seed = derive_seed(2005, 8);
    const auto messages = generate_workload(*graph, workload);
    const auto factory = [&]() { return sim::make_router(spec.router, *graph); };

    TrafficConfig fast;
    fast.frontier = FrontierMode::kBatch;
    fast.adjacency = AdjacencyMode::kFlat;
    TrafficConfig slow;
    slow.frontier = FrontierMode::kPerMessage;
    slow.adjacency = AdjacencyMode::kImplicit;
    expect_identical(run_traffic(*graph, env, factory, messages, fast),
                     run_traffic(*graph, env, factory, messages, slow),
                     spec.topology + "/" + spec.router + " crossed-extremes");
  }
}

TEST(FrontierSearch, FrontierModeNamesRoundTrip) {
  EXPECT_EQ(parse_frontier_mode("batch"), FrontierMode::kBatch);
  EXPECT_EQ(parse_frontier_mode("permsg"), FrontierMode::kPerMessage);
  EXPECT_EQ(frontier_mode_name(FrontierMode::kBatch), "batch");
  EXPECT_EQ(frontier_mode_name(FrontierMode::kPerMessage), "permsg");
  EXPECT_THROW(static_cast<void>(parse_frontier_mode("per-message")), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(parse_frontier_mode("")), std::invalid_argument);
}

}  // namespace
}  // namespace faultroute
