// E10 — the Angel-Benjamini metric-distortion picture behind Theorem 3.
//
// [3] proves: for p = n^{-alpha} with alpha < 1/2 the hypercube embeds in
// its percolation with constant distortion, while for alpha > 1/2 it cannot.
// We measure the percolation-distance stretch D(u,v)/d(u,v) for random pairs
// in the giant component across alpha: the stretch should stay O(1) below
// alpha = 1/2 and grow sharply above it.

#include "experiments.hpp"

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "graph/hypercube.hpp"
#include "percolation/chemical_distance.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/rng.hpp"
#include "sim/options.hpp"
#include "sim/sweep.hpp"

namespace faultroute::paper {

void e10_distortion(const sim::Options& options) {
  const int n = options.quick ? 12 : 14;
  const Hypercube cube(n);
  const std::vector<double> alphas = {0.30, 0.45, 0.55, 0.70};
  const int trials = options.trials_or(40);

  Table table({"alpha", "p", "pairs", "mean_stretch", "median_stretch", "q90_stretch",
               "disconnected_frac"});
  for (const double alpha : alphas) {
    const double p = sim::p_for_alpha(n, alpha);
    Summary stretch;
    int disconnected = 0;
    int sampled = 0;
    for (int t = 0; t < trials; ++t) {
      const std::uint64_t seed =
          derive_seed(options.seed, static_cast<std::uint64_t>(alpha * 1000) * 10000 +
                                        static_cast<std::uint64_t>(t));
      const HashEdgeSampler sampler(p, seed);
      Rng rng(seed ^ 0xabcdefULL);
      // A random pair at Hamming distance >= n/2 (long-range stretch is the
      // regime [3] speaks to).
      const VertexId u = uniform_below(rng, cube.num_vertices());
      VertexId v = u;
      while (cube.distance(u, v) < static_cast<std::uint64_t>(n) / 2) {
        v = uniform_below(rng, cube.num_vertices());
      }
      ++sampled;
      const auto d = chemical_distance(cube, sampler, u, v);
      if (!d.has_value()) {
        ++disconnected;
        continue;
      }
      stretch.add(static_cast<double>(*d) / static_cast<double>(cube.distance(u, v)));
    }
    table.add_row({Table::fmt(alpha, 2), Table::fmt(p, 4), Table::fmt(sampled),
                   Table::fmt(stretch.mean(), 2), Table::fmt(stretch.median(), 2),
                   Table::fmt(stretch.quantile(0.9), 2),
                   Table::fmt(static_cast<double>(disconnected) / sampled, 2)});
  }
  table.print(
      "E10: hypercube percolation-distance stretch vs alpha, n = " + std::to_string(n) +
      " ([3]: constant distortion for alpha < 1/2, unbounded above)");
  if (const auto path = options.csv_path("e10_distortion")) table.write_csv(*path);
}

}  // namespace faultroute::paper
