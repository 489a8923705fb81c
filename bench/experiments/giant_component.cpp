// E7 — the background percolation thresholds the paper builds on.
//
//  (a) Ajtai-Komlos-Szemeredi: H_{n,p} at p = (1+eps)/n has a giant
//      (Theta(2^n)) component for eps > 0 and only o(2^n) components for
//      eps < 0. We sweep eps and watch the largest-cluster fraction.
//  (b) Erdos-Spencer: H_{n,p} is connected w.h.p. iff p > 1/2 — watch the
//      isolated-vertex count across p = 1/2.
//  (c) Mesh critical probabilities: bisection estimates of p_c(2) = 1/2
//      (exact) and p_c(3) ~ 0.2488.

#include "experiments.hpp"

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/threshold.hpp"
#include "random/rng.hpp"
#include "sim/options.hpp"

namespace faultroute::paper {
namespace {

void hypercube_giant(const sim::Options& options) {
  const std::vector<int> dims =
      options.quick ? std::vector<int>{10, 12} : std::vector<int>{10, 12, 14};
  const std::vector<double> epsilons = {-0.5, -0.2, 0.0, 0.2, 0.5, 1.0, 2.0};
  const int trials = options.trials_or(8);

  Table table({"n", "eps", "p=(1+eps)/n", "giant_fraction", "second_fraction"});
  for (const int n : dims) {
    const Hypercube cube(n);
    for (const double eps : epsilons) {
      const double p = (1.0 + eps) / static_cast<double>(n);
      Summary giant;
      Summary second;
      for (int t = 0; t < trials; ++t) {
        const std::uint64_t seed =
            derive_seed(options.seed, static_cast<std::uint64_t>(n) * 1000 +
                                          static_cast<std::uint64_t>((eps + 1.0) * 100) * 64 +
                                          static_cast<std::uint64_t>(t));
        const auto s = analyze_components(cube, HashEdgeSampler(p, seed));
        giant.add(s.largest_fraction());
        second.add(static_cast<double>(s.second_largest) /
                   static_cast<double>(s.num_vertices));
      }
      table.add_row({Table::fmt(n), Table::fmt(eps, 1), Table::fmt(p, 4),
                     Table::fmt(giant.mean(), 4), Table::fmt(second.mean(), 4)});
    }
  }
  table.print(
      "E7a: hypercube giant component vs eps at p = (1+eps)/n "
      "(AKS82: giant iff eps > 0; the paper's connectivity baseline)");
  if (const auto path = options.csv_path("e7_hypercube_giant")) table.write_csv(*path);
}

void hypercube_connectivity(const sim::Options& options) {
  const int n = options.quick ? 10 : 12;
  const Hypercube cube(n);
  const std::vector<double> ps = {0.40, 0.45, 0.50, 0.55, 0.60, 0.70};
  const int trials = options.trials_or(10);

  Table table({"p", "Pr[connected]", "mean_components", "mean_isolated_fraction"});
  for (const double p : ps) {
    int connected = 0;
    Summary components;
    Summary isolated;
    for (int t = 0; t < trials; ++t) {
      const std::uint64_t seed = derive_seed(
          options.seed, 500000 + static_cast<std::uint64_t>(p * 100) * 64 +
                            static_cast<std::uint64_t>(t));
      const HashEdgeSampler sampler(p, seed);
      const auto s = analyze_components(cube, sampler);
      if (s.num_components == 1) ++connected;
      components.add(static_cast<double>(s.num_components));
      // Isolated vertices are the last obstruction to connectivity.
      std::uint64_t iso = 0;
      for (VertexId v = 0; v < cube.num_vertices(); ++v) {
        bool any_open = false;
        for (int i = 0; i < cube.degree(v) && !any_open; ++i) {
          any_open = sampler.is_open(cube.edge_key(v, i));
        }
        if (!any_open) ++iso;
      }
      isolated.add(static_cast<double>(iso) / static_cast<double>(cube.num_vertices()));
    }
    table.add_row({Table::fmt(p, 2),
                   Table::fmt(static_cast<double>(connected) / trials, 2),
                   Table::fmt(components.mean(), 1), Table::fmt(isolated.mean(), 5)});
  }
  table.print(
      "E7b: hypercube connectivity across p = 1/2 (Erdos-Spencer threshold; n=" +
      std::to_string(n) + ")");
  if (const auto path = options.csv_path("e7_hypercube_connectivity")) {
    table.write_csv(*path);
  }
}

void mesh_thresholds(const sim::Options& options) {
  Table table({"d", "side", "estimated_p_c", "reference"});
  ThresholdConfig config;
  config.target_fraction = 0.25;
  config.trials_per_point = options.quick ? 4 : 8;
  config.tolerance = 0.004;
  config.seed = options.seed;

  {
    const int side = options.quick ? 32 : 64;
    const auto order = [side](double p, std::uint64_t seed) {
      const Mesh g(2, side, /*wrap=*/true);
      return analyze_components(g, HashEdgeSampler(p, seed)).largest_fraction();
    };
    const double pc = estimate_threshold(order, 0.25, 0.75, config);
    table.add_row({"2", Table::fmt(side), Table::fmt(pc, 4), "0.5 exact (Kesten)"});
  }
  {
    const int side = options.quick ? 10 : 16;
    const auto order = [side](double p, std::uint64_t seed) {
      const Mesh g(3, side, /*wrap=*/true);
      return analyze_components(g, HashEdgeSampler(p, seed)).largest_fraction();
    };
    const double pc = estimate_threshold(order, 0.1, 0.5, config);
    table.add_row({"3", Table::fmt(side), Table::fmt(pc, 4), "~0.2488 (numerical)"});
  }
  table.print("E7c: mesh bond-percolation thresholds via bisection");
  if (const auto path = options.csv_path("e7_mesh_thresholds")) table.write_csv(*path);
}

}  // namespace

void e7_giant_component(const sim::Options& options) {
  hypercube_giant(options);
  hypercube_connectivity(options);
  mesh_thresholds(options);
}

}  // namespace faultroute::paper
