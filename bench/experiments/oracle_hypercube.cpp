// E11 — the paper's Section 6 conjecture: for 1/n < p < n^{-1/2} even
// *oracle* routing on the hypercube should be exponential in n.
//
// We compare the best generic oracle strategy we have (bidirectional BFS,
// which meets in the middle and roughly square-roots the local flooding
// cost) against the local landmark router in the conjectured-hard regime.
// Evidence for the conjecture: the oracle's probe count still grows
// explosively with n (merely with a smaller exponent), instead of collapsing
// to poly(n).

#include "experiments.hpp"

#include "analysis/table.hpp"
#include "core/experiment.hpp"
#include "core/routers/bidirectional_router.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/hypercube.hpp"
#include "random/rng.hpp"
#include "sim/options.hpp"
#include "sim/sweep.hpp"

namespace faultroute::paper {

void e11_oracle_hypercube(const sim::Options& options) {
  const std::vector<int> dims =
      options.quick ? std::vector<int>{10, 12} : std::vector<int>{10, 12, 14};
  const std::vector<double> alphas = {0.60, 0.70};
  const std::uint64_t budget = options.quick ? 50000 : 200000;
  const int trials = options.trials_or(15);

  Table table({"n", "alpha", "router", "median_probes", "censored", "growth_vs_prev_n"});
  for (const double alpha : alphas) {
    double prev_local = 0;
    double prev_oracle = 0;
    for (const int n : dims) {
      const Hypercube cube(n);
      const double p = sim::p_for_alpha(n, alpha);
      const VertexId u = 0;
      const VertexId v = cube.num_vertices() - 1;

      ExperimentConfig config;
      config.trials = trials;
      config.probe_budget = budget;
      config.base_seed = derive_seed(options.seed, static_cast<std::uint64_t>(n) * 100 +
                                                       static_cast<std::uint64_t>(alpha * 100));

      LandmarkRouter local;
      const ExperimentSummary ls = measure_routing(cube, p, local, u, v, config);
      BidirectionalBfsRouter oracle;
      const ExperimentSummary os = measure_routing(cube, p, oracle, u, v, config);

      table.add_row({Table::fmt(n), Table::fmt(alpha, 2), "local-landmark",
                     Table::fmt(ls.median_distinct, 0),
                     Table::fmt(static_cast<double>(ls.censored) / ls.trials, 2),
                     prev_local > 0 ? Table::fmt(ls.median_distinct / prev_local, 2)
                                    : std::string("-")});
      table.add_row({Table::fmt(n), Table::fmt(alpha, 2), "oracle-bidirectional",
                     Table::fmt(os.median_distinct, 0),
                     Table::fmt(static_cast<double>(os.censored) / os.trials, 2),
                     prev_oracle > 0 ? Table::fmt(os.median_distinct / prev_oracle, 2)
                                     : std::string("-")});
      prev_local = ls.median_distinct;
      prev_oracle = os.median_distinct;
    }
  }
  table.print(
      "E11: oracle (bidirectional BFS) vs local routing on H_{n,p} in the "
      "conjectured-hard regime 1/2 < alpha < 1 "
      "(Section 6: oracle routing conjectured exponential too)");
  if (const auto path = options.csv_path("e11_oracle_hypercube")) table.write_csv(*path);
}

}  // namespace faultroute::paper
