// E1 — Theorem 3: the routing phase transition of the hypercube.
//
// Sweep p = n^{-alpha} across the critical exponent alpha = 1/2 and measure
// the local routing complexity of the paper's landmark/BFS algorithm between
// antipodal vertices, conditioned on {u ~ v}.
//
// Paper's claim (shape): for alpha < 1/2 the complexity is polynomial in n
// (Theorem 3(ii)); for alpha > 1/2 every local router needs 2^{Omega(n^beta)}
// probes (Theorem 3(i)) — so at fixed n the probe count should explode as
// alpha crosses 1/2, and the explosion should sharpen as n grows.

#include "experiments.hpp"

#include "analysis/table.hpp"
#include "core/experiment.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/hypercube.hpp"
#include "random/rng.hpp"
#include "sim/options.hpp"
#include "sim/sweep.hpp"

namespace faultroute::paper {

void e1_hypercube_phase(const sim::Options& options) {
  const std::vector<int> dims = options.quick ? std::vector<int>{10, 12}
                                              : std::vector<int>{10, 12, 14};
  const std::vector<double> alphas = {0.25, 0.35, 0.45, 0.55, 0.65, 0.75};
  const std::uint64_t budget = options.quick ? 50000 : 200000;
  const int trials = options.trials_or(20);

  Table table({"n", "alpha", "p", "median_probes", "mean_probes", "censored",
               "mean_path_len", "reject_rate"});
  // For the verdict: median probes at the flanking alphas per n.
  std::vector<double> sub_half(dims.size(), 0.0);    // alpha = 0.45
  std::vector<double> super_half(dims.size(), 0.0);  // alpha = 0.65

  for (std::size_t d = 0; d < dims.size(); ++d) {
    const int n = dims[d];
    const Hypercube cube(n);
    const VertexId u = 0;
    const VertexId v = cube.num_vertices() - 1;  // antipodal: distance n
    for (const double alpha : alphas) {
      const double p = sim::p_for_alpha(n, alpha);
      LandmarkRouter router;
      ExperimentConfig config;
      config.trials = trials;
      config.base_seed = derive_seed(options.seed, static_cast<std::uint64_t>(n * 100) +
                                                       static_cast<std::uint64_t>(alpha * 100));
      config.probe_budget = budget;
      const ExperimentSummary s = measure_routing(cube, p, router, u, v, config);
      table.add_row({Table::fmt(n), Table::fmt(alpha, 2), Table::fmt(p, 4),
                     Table::fmt(s.median_distinct, 0), Table::fmt(s.mean_distinct, 0),
                     Table::fmt(static_cast<double>(s.censored) / s.trials, 2),
                     Table::fmt(s.mean_path_edges, 1), Table::fmt(s.rejection_rate, 2)});
      if (alpha == 0.45) sub_half[d] = s.median_distinct;
      if (alpha == 0.65) super_half[d] = s.median_distinct;
    }
  }
  table.print("E1: hypercube routing complexity vs alpha (p = n^-alpha), landmark router");
  if (const auto path = options.csv_path("e1_hypercube_phase")) table.write_csv(*path);

  Table verdict({"n", "median@a=0.45", "median@a=0.65", "blowup_factor"});
  for (std::size_t d = 0; d < dims.size(); ++d) {
    verdict.add_row({Table::fmt(dims[d]), Table::fmt(sub_half[d], 0),
                     Table::fmt(super_half[d], 0),
                     Table::fmt(super_half[d] / std::max(1.0, sub_half[d]), 1)});
  }
  verdict.print("E1 verdict: probe blow-up across alpha = 1/2 (paper: transition at 1/2)");
  if (const auto path = options.csv_path("e1_verdict")) verdict.write_csv(*path);
}

}  // namespace faultroute::paper
