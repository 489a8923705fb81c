#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "core/routers/flood_router.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"

namespace faultroute {
namespace {

TEST(Experiment, ConditionsOnConnectivity) {
  // Every accepted environment must actually connect u and v.
  const Mesh g(2, 8);
  FloodRouter router;
  ExperimentConfig config;
  config.trials = 25;
  config.base_seed = 7;
  const auto outcomes =
      run_routing_trials(g, 0.55, router, 0, g.num_vertices() - 1, config);
  ASSERT_EQ(outcomes.size(), 25u);
  for (const auto& o : outcomes) {
    const HashEdgeSampler s(0.55, o.seed);
    EXPECT_TRUE(*open_connected(g, s, 0, g.num_vertices() - 1));
    EXPECT_TRUE(o.routed);
    EXPECT_TRUE(o.path_valid);
    EXPECT_GE(o.distinct_probes, 1u);
    EXPECT_GE(o.total_probes, o.distinct_probes);
  }
}

TEST(Experiment, RejectionsAreCountedNearCriticality) {
  const Mesh g(2, 8);
  FloodRouter router;
  ExperimentConfig config;
  config.trials = 10;
  config.base_seed = 3;
  const auto outcomes = run_routing_trials(g, 0.45, router, 0, 20, config);
  std::uint64_t rejections = 0;
  for (const auto& o : outcomes) rejections += o.rejected;
  EXPECT_GT(rejections, 0u);  // subcritical-ish: many environments rejected
}

TEST(Experiment, ThrowsWhenConditioningImpossible) {
  const Mesh g(2, 6);
  FloodRouter router;
  ExperimentConfig config;
  config.trials = 1;
  config.max_resample_attempts = 5;
  EXPECT_THROW(run_routing_trials(g, 0.0, router, 0, 1, config), std::runtime_error);
}

TEST(Experiment, RejectsEndpointsOutsideTheGraph) {
  // A vertex id past num_vertices() would index per-vertex tables out of
  // bounds; both entry points must reject it, naming the bad endpoint.
  const Mesh g(2, 8);
  FloodRouter router;
  ExperimentConfig config;
  config.trials = 3;
  EXPECT_THROW(run_routing_trials(g, 0.9, router, 999, 1, config), std::invalid_argument);
  EXPECT_THROW(run_routing_trials(g, 0.9, router, 0, 64, config), std::invalid_argument);
  const RouterFactory factory = [] { return std::make_unique<FloodRouter>(); };
  EXPECT_THROW(run_routing_trials_parallel(g, 0.9, factory, 999, 1, config, 2),
               std::invalid_argument);
  try {
    (void)run_routing_trials_parallel(g, 0.9, factory, 0, 999, config, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("999"), std::string::npos) << e.what();
  }
  // The last valid vertex is accepted.
  EXPECT_EQ(run_routing_trials(g, 0.9, router, 0, 63, config).size(), 3U);
}

TEST(Experiment, BudgetProducesCensoredTrials) {
  const Hypercube g(8);
  FloodRouter router;
  ExperimentConfig config;
  config.trials = 10;
  config.probe_budget = 5;  // absurdly small: flooding to the antipode fails
  config.base_seed = 11;
  const auto outcomes =
      run_routing_trials(g, 0.9, router, 0, g.num_vertices() - 1, config);
  int censored = 0;
  for (const auto& o : outcomes) {
    if (o.censored) {
      ++censored;
      EXPECT_FALSE(o.routed);
      EXPECT_LE(o.distinct_probes, 5u);
    }
  }
  EXPECT_GT(censored, 0);
}

TEST(Experiment, UnconditionedModeSkipsRejection) {
  const Mesh g(2, 6);
  FloodRouter router;
  ExperimentConfig config;
  config.trials = 20;
  config.require_connected = false;
  config.base_seed = 13;
  const auto outcomes = run_routing_trials(g, 0.3, router, 0, 35, config);
  int failures = 0;
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.rejected, 0u);
    if (!o.routed) ++failures;
  }
  EXPECT_GT(failures, 0);  // at p=0.3 most pairs are disconnected
}

TEST(Experiment, DeterministicPerBaseSeed) {
  const Mesh g(2, 8);
  LandmarkRouter router;
  ExperimentConfig config;
  config.trials = 8;
  config.base_seed = 123;
  const auto a = run_routing_trials(g, 0.6, router, 0, 63, config);
  const auto b = run_routing_trials(g, 0.6, router, 0, 63, config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].distinct_probes, b[i].distinct_probes);
  }
}

TEST(Experiment, SummaryAggregatesCorrectly) {
  std::vector<TrialOutcome> outcomes(4);
  outcomes[0] = {.seed = 1, .rejected = 1, .routed = true, .censored = false,
                 .path_valid = true, .distinct_probes = 10, .total_probes = 12,
                 .path_edges = 4};
  outcomes[1] = {.seed = 2, .rejected = 0, .routed = true, .censored = false,
                 .path_valid = true, .distinct_probes = 20, .total_probes = 25,
                 .path_edges = 6};
  outcomes[2] = {.seed = 3, .rejected = 0, .routed = false, .censored = true,
                 .path_valid = false, .distinct_probes = 30, .total_probes = 30,
                 .path_edges = 0};
  outcomes[3] = {.seed = 4, .rejected = 3, .routed = false, .censored = false,
                 .path_valid = false, .distinct_probes = 5, .total_probes = 5,
                 .path_edges = 0};
  const ExperimentSummary s = summarize_trials(outcomes);
  EXPECT_EQ(s.trials, 4);
  EXPECT_EQ(s.routed, 2);
  EXPECT_EQ(s.censored, 1);
  EXPECT_EQ(s.unexpected_failures, 1);
  EXPECT_EQ(s.invalid_paths, 0);
  EXPECT_DOUBLE_EQ(s.mean_distinct, (10 + 20 + 30 + 5) / 4.0);
  EXPECT_DOUBLE_EQ(s.max_distinct, 30.0);
  EXPECT_DOUBLE_EQ(s.mean_path_edges, 5.0);
  EXPECT_DOUBLE_EQ(s.rejection_rate, 4.0 / 8.0);
}

TEST(Experiment, SummaryOfEmptyIsZeroed) {
  const ExperimentSummary s = summarize_trials({});
  EXPECT_EQ(s.trials, 0);
  EXPECT_EQ(s.routed, 0);
}

TEST(Experiment, MeasureRoutingEndToEnd) {
  const Mesh g(2, 10);
  LandmarkRouter router;
  ExperimentConfig config;
  config.trials = 15;
  config.base_seed = 99;
  const auto summary = measure_routing(g, 0.7, router, 0, 99, config);
  EXPECT_EQ(summary.trials, 15);
  EXPECT_EQ(summary.routed, 15);
  EXPECT_EQ(summary.censored, 0);
  EXPECT_EQ(summary.invalid_paths, 0);
  EXPECT_EQ(summary.unexpected_failures, 0);
  EXPECT_GT(summary.mean_distinct, 0.0);
  EXPECT_GE(summary.mean_path_edges, static_cast<double>(g.distance(0, 99)));
}

}  // namespace
}  // namespace faultroute
