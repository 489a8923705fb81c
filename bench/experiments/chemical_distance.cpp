// E9 — Lemma 8 (Antal-Pisztora): above criticality the chemical distance
// D(x, y) in the percolated mesh is at most rho * d(x, y) outside an
// exponentially unlikely event.
//
// We measure the stretch D/d on the 2D torus for pairs at distance n,
// conditioned on {x ~ y}: the mean stretch should be a constant rho(p)
// (shrinking towards 1 as p -> 1) and the upper tail should be thin
// (q99/median close to 1), at every p > p_c and *independent of n*.

#include "experiments.hpp"

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "graph/mesh.hpp"
#include "percolation/chemical_distance.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/rng.hpp"
#include "sim/options.hpp"

namespace faultroute::paper {

void e9_chemical_distance(const sim::Options& options) {
  const std::int64_t side = options.quick ? 96 : 128;
  const Mesh mesh(2, side, /*wrap=*/true);
  const std::vector<double> ps = {0.55, 0.60, 0.70, 0.90};
  const std::vector<std::int64_t> distances = {16, 32, 48};
  const int trials = options.trials_or(30);

  Table table({"p", "n", "mean_stretch", "median_stretch", "q95_stretch", "max_stretch",
               "reject_rate"});
  for (const double p : ps) {
    for (const std::int64_t n : distances) {
      const VertexId u = mesh.vertex_at({0, 0});
      const VertexId v = mesh.vertex_at({n, 0});
      Summary stretch;
      std::uint64_t rejected = 0;
      int accepted = 0;
      for (std::uint64_t t = 0; accepted < trials && t < 5000; ++t) {
        const std::uint64_t seed = derive_seed(
            options.seed, static_cast<std::uint64_t>(p * 1000) * 100000 +
                              static_cast<std::uint64_t>(n) * 1000 + t);
        const HashEdgeSampler sampler(p, seed);
        const auto d = chemical_distance(mesh, sampler, u, v);
        if (!d.has_value()) {
          ++rejected;
          continue;
        }
        ++accepted;
        stretch.add(static_cast<double>(*d) / static_cast<double>(n));
      }
      table.add_row(
          {Table::fmt(p, 2), Table::fmt(static_cast<std::uint64_t>(n)),
           Table::fmt(stretch.mean(), 3), Table::fmt(stretch.median(), 3),
           Table::fmt(stretch.quantile(0.95), 3), Table::fmt(stretch.max(), 3),
           Table::fmt(static_cast<double>(rejected) / (rejected + accepted), 2)});
    }
  }
  table.print(
      "E9: chemical-distance stretch D(x,y)/d(x,y) on the 2D torus "
      "(Antal-Pisztora: bounded stretch rho(p) with thin tails, for all p > 1/2)");
  if (const auto path = options.csv_path("e9_chemical_distance")) table.write_csv(*path);
}

}  // namespace faultroute::paper
