#include "core/experiment.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/parallel.hpp"
#include "core/path.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/rng.hpp"

namespace faultroute {

namespace {

/// One conditioned routing trial; deterministic in (config.base_seed, trial).
TrialOutcome run_single_trial(const Topology& graph, double p, Router& router,
                              VertexId u, VertexId v, const ExperimentConfig& config,
                              int trial) {
  TrialOutcome outcome;

    // Condition on {u ~ v} by rejection-sampling environments; the
    // ground-truth check is a BFS on the open graph, independent of the
    // router under test.
    std::optional<std::uint64_t> accepted_seed;
    for (int attempt = 0; attempt < config.max_resample_attempts; ++attempt) {
      const std::uint64_t seed = derive_seed(
          config.base_seed, static_cast<std::uint64_t>(trial) * 1000003ULL +
                                static_cast<std::uint64_t>(attempt));
      if (!config.require_connected) {
        accepted_seed = seed;
        break;
      }
      const HashEdgeSampler sampler(p, seed);
      const std::optional<bool> connected =
          open_connected(graph, sampler, u, v, config.connectivity_cap);
      if (connected.has_value() && *connected) {
        accepted_seed = seed;
        break;
      }
      ++outcome.rejected;
    }
    if (!accepted_seed) {
      // analyze:allow-throw-safety(resample exhaustion aborts the trial sweep by design; funneled through first_error)
      throw std::runtime_error(
          "run_routing_trials: could not sample a connected environment for " +
          graph.name() + " at p=" + std::to_string(p) +
          " — increase max_resample_attempts or p");
    }
    outcome.seed = *accepted_seed;

    const HashEdgeSampler sampler(p, outcome.seed);
    ProbeContext ctx(graph, sampler, u, router.required_mode(), config.probe_budget);
    std::optional<Path> path;
    try {
      path = router.route(ctx, u, v);
    } catch (const ProbeBudgetExceeded&) {
      outcome.censored = true;
    }
    outcome.distinct_probes = ctx.distinct_probes();
    outcome.total_probes = ctx.total_probes();
    if (path) {
      outcome.routed = true;
      outcome.path_edges = path_length(*path);
      outcome.path_valid =
          !config.verify_paths || is_valid_open_path(graph, sampler, *path, u, v);
    }
  return outcome;
}

/// Both endpoints must be vertices of `graph`: an out-of-range id would index
/// past every per-vertex table the trial touches.
void require_endpoints(const Topology& graph, VertexId u, VertexId v) {
  for (const VertexId endpoint : {u, v}) {
    if (endpoint >= graph.num_vertices()) {
      // analyze:allow-throw-safety(argument validation precedes the trial loops)
      throw std::invalid_argument("run_routing_trials: endpoint " + std::to_string(endpoint) +
                                  " out of range for " + graph.name() + " (" +
                                  std::to_string(graph.num_vertices()) + " vertices)");
    }
  }
}

}  // namespace

std::vector<TrialOutcome> run_routing_trials(const Topology& graph, double p,
                                             Router& router, VertexId u, VertexId v,
                                             const ExperimentConfig& config) {
  require_endpoints(graph, u, v);
  std::vector<TrialOutcome> outcomes;
  outcomes.reserve(static_cast<std::size_t>(config.trials));
  for (int trial = 0; trial < config.trials; ++trial) {
    outcomes.push_back(run_single_trial(graph, p, router, u, v, config, trial));
  }
  return outcomes;
}

std::vector<TrialOutcome> run_routing_trials_parallel(const Topology& graph, double p,
                                                      const RouterFactory& make_router,
                                                      VertexId u, VertexId v,
                                                      const ExperimentConfig& config,
                                                      unsigned threads) {
  require_endpoints(graph, u, v);
  std::vector<TrialOutcome> outcomes(static_cast<std::size_t>(std::max(0, config.trials)));
  parallel_index_loop(outcomes.size(), threads, [&] {
    const std::shared_ptr<Router> router = make_router();
    return [&, router](std::size_t trial) {
      outcomes[trial] =
          run_single_trial(graph, p, *router, u, v, config, static_cast<int>(trial));
    };
  });
  return outcomes;
}

ExperimentSummary summarize_trials(const std::vector<TrialOutcome>& outcomes) {
  ExperimentSummary summary;
  summary.trials = static_cast<int>(outcomes.size());
  if (outcomes.empty()) return summary;

  std::vector<double> distinct;
  distinct.reserve(outcomes.size());
  double probe_sum = 0.0;
  double path_sum = 0.0;
  std::uint64_t rejected = 0;
  for (const TrialOutcome& o : outcomes) {
    if (o.routed) {
      ++summary.routed;
      if (!o.path_valid) ++summary.invalid_paths;
      path_sum += static_cast<double>(o.path_edges);
    } else if (o.censored) {
      ++summary.censored;
    } else {
      ++summary.unexpected_failures;
    }
    distinct.push_back(static_cast<double>(o.distinct_probes));
    probe_sum += static_cast<double>(o.distinct_probes);
    summary.max_distinct =
        std::max(summary.max_distinct, static_cast<double>(o.distinct_probes));
    rejected += o.rejected;
  }
  summary.mean_distinct = probe_sum / static_cast<double>(outcomes.size());
  std::nth_element(distinct.begin(), distinct.begin() + distinct.size() / 2,
                   distinct.end());
  summary.median_distinct = distinct[distinct.size() / 2];
  summary.mean_path_edges =
      summary.routed > 0 ? path_sum / static_cast<double>(summary.routed) : 0.0;
  summary.rejection_rate =
      static_cast<double>(rejected) /
      static_cast<double>(rejected + static_cast<std::uint64_t>(outcomes.size()));
  return summary;
}

ExperimentSummary measure_routing(const Topology& graph, double p, Router& router,
                                  VertexId u, VertexId v, const ExperimentConfig& config) {
  return summarize_trials(run_routing_trials(graph, p, router, u, v, config));
}

}  // namespace faultroute
