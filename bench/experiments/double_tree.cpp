// E4 + E5 — the double binary tree TT_n (Sections 2.1 and 5).
//
//  (a) Lemma 6: the roots are connected with probability bounded away from 0
//      iff p > 1/sqrt(2) ~ 0.7071. We measure Pr[x ~ y] across p for several
//      depths and compare with the Galton-Watson mirrored-branch prediction
//      q_n(p^2).
//  (b) Theorem 7: any local router pays ~ p^{-n} probes; we measure the
//      DFS+climb local router's growth rate in n.
//  (c) Theorem 9: the paired-edge oracle router routes in expected O(n)
//      probes; we verify linearity in n up to n = 28 (3 * 2^28 vertices,
//      implicit — never materialised).

#include "experiments.hpp"

#include <cmath>
#include <cstdlib>

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "core/probe_context.hpp"
#include "core/routers/double_tree_routers.hpp"
#include "graph/double_tree.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/galton_watson.hpp"
#include "random/rng.hpp"
#include "sim/options.hpp"

namespace faultroute::paper {
namespace {

void connectivity_threshold(const sim::Options& options) {
  const std::vector<int> depths = {8, 12};
  const std::vector<double> ps = {0.60, 0.65, 0.70, 0.7071, 0.73, 0.78, 0.85, 0.95};
  const int trials = options.trials_or(300);

  Table table({"n", "p", "Pr[x~y] measured", "CI_low", "CI_high", "GW q_n(p^2)"});
  for (const int n : depths) {
    const DoubleBinaryTree tree(n);
    for (const double p : ps) {
      std::uint64_t connected = 0;
      for (int t = 0; t < trials; ++t) {
        const std::uint64_t seed =
            derive_seed(options.seed, static_cast<std::uint64_t>(n) * 1000000 +
                                          static_cast<std::uint64_t>(p * 10000) * 31 +
                                          static_cast<std::uint64_t>(t));
        const HashEdgeSampler sampler(p, seed);
        if (*open_connected(tree, sampler, tree.root1(), tree.root2())) ++connected;
      }
      const Interval ci =
          wilson_interval(connected, static_cast<std::uint64_t>(trials));
      const BinaryGaltonWatson gw(p * p);
      table.add_row({Table::fmt(n), Table::fmt(p, 4),
                     Table::fmt(static_cast<double>(connected) / trials, 3),
                     Table::fmt(ci.low, 3), Table::fmt(ci.high, 3),
                     Table::fmt(gw.reach_probability(n), 3)});
    }
  }
  table.print(
      "E4a: TT_n root connectivity vs p (Lemma 6: threshold at 1/sqrt(2) ~ 0.707; "
      "GW column = mirrored-branch lower bound)");
  if (const auto path = options.csv_path("e4_tt_connectivity")) table.write_csv(*path);
}

void local_routing_cost(const sim::Options& options) {
  const std::vector<double> ps = {0.75, 0.80, 0.88};
  const std::vector<int> depths =
      options.quick ? std::vector<int>{6, 8, 10, 12} : std::vector<int>{6, 8, 10, 12, 14, 16};
  const int trials = options.trials_or(80);

  Table table({"p", "n", "median_probes", "mean_probes", "q90_probes"});
  Table fits({"p", "growth_rate_per_level", "paper 1/p", "paper 2p", "r2"});
  for (const double p : ps) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const int n : depths) {
      const DoubleBinaryTree tree(n);
      DoubleTreeLocalRouter router(tree);
      Summary probes;
      int accepted = 0;
      for (std::uint64_t t = 0; accepted < trials && t < 4000; ++t) {
        const std::uint64_t seed =
            derive_seed(options.seed, 7000000 + static_cast<std::uint64_t>(p * 1000) * 4096 +
                                          static_cast<std::uint64_t>(n) * 100000 + t);
        const HashEdgeSampler sampler(p, seed);
        if (!*open_connected(tree, sampler, tree.root1(), tree.root2())) continue;
        ++accepted;
        ProbeContext ctx(tree, sampler, tree.root1(), RoutingMode::kLocal);
        const auto path = router.route(ctx, tree.root1(), tree.root2());
        if (!path) std::abort();  // complete router conditioned on connectivity
        probes.add(static_cast<double>(ctx.distinct_probes()));
      }
      table.add_row({Table::fmt(p, 2), Table::fmt(n), Table::fmt(probes.median(), 0),
                     Table::fmt(probes.mean(), 0), Table::fmt(probes.quantile(0.9), 0)});
      xs.push_back(static_cast<double>(n));
      // Means, not medians: the p^{-n} cost is driven by the heavy upper
      // tail of failed leaf climbs, which the median misses at high p.
      ys.push_back(probes.mean());
    }
    const LinearFit fit = semilog_fit(xs, ys);
    fits.add_row({Table::fmt(p, 2), Table::fmt(std::exp(fit.slope), 3),
                  Table::fmt(1.0 / p, 3), Table::fmt(2.0 * p, 3),
                  Table::fmt(fit.r_squared, 3)});
  }
  table.print("E4b: TT_n local routing complexity (Theorem 7: exponential in n)");
  if (const auto path = options.csv_path("e4_tt_local")) table.write_csv(*path);
  fits.print(
      "E4b fits: per-level growth of median probes (paper lower bound: >= 1/p per "
      "level; reachable-leaf heuristic suggests ~ 2p)");
  if (const auto path = options.csv_path("e4_tt_local_fits")) fits.write_csv(*path);
}

void oracle_routing_cost(const sim::Options& options) {
  const std::vector<int> depths = options.quick
                                      ? std::vector<int>{8, 12, 16, 20}
                                      : std::vector<int>{8, 12, 16, 20, 24, 28};
  const double p = 0.80;  // comfortably above 1/sqrt(2)
  const int trials = options.trials_or(200);

  Table table({"n", "success_rate", "GW survival(p^2)", "mean_probes", "probes_per_n"});
  std::vector<double> xs;
  std::vector<double> ys;
  for (const int n : depths) {
    const DoubleBinaryTree tree(n);
    DoubleTreePairedOracleRouter router(tree);
    Summary probes;
    int successes = 0;
    for (int t = 0; t < trials; ++t) {
      const std::uint64_t seed =
          derive_seed(options.seed, 9000000 + static_cast<std::uint64_t>(n) * 100000 +
                                        static_cast<std::uint64_t>(t));
      const HashEdgeSampler sampler(p, seed);
      // No conditioning: at depth 28 a ground-truth BFS over 3 * 2^28
      // vertices is exactly what the oracle router lets us avoid. We report
      // success rate against the GW survival prediction instead, and average
      // probes over successful routes (Theorem 9 conditions on success).
      ProbeContext ctx(tree, sampler, tree.root1(), RoutingMode::kOracle);
      const auto path = router.route(ctx, tree.root1(), tree.root2());
      if (path) {
        ++successes;
        probes.add(static_cast<double>(ctx.distinct_probes()));
      }
    }
    const BinaryGaltonWatson gw(p * p);
    table.add_row({Table::fmt(n), Table::fmt(static_cast<double>(successes) / trials, 3),
                   Table::fmt(gw.survival_probability(), 3),
                   Table::fmt(probes.mean(), 1),
                   Table::fmt(probes.mean() / static_cast<double>(n), 2)});
    xs.push_back(static_cast<double>(n));
    ys.push_back(probes.mean());
  }
  table.print(
      "E5: TT_n paired-edge oracle router at p = 0.8 (Theorem 9: O(n) probes; "
      "probes_per_n should be ~ constant)");
  if (const auto path = options.csv_path("e5_tt_oracle")) table.write_csv(*path);

  const LinearFit fit = log_log_fit(xs, ys);
  Table fitrow({"loglog_exponent (paper: 1.0)", "r2"});
  fitrow.add_row({Table::fmt(fit.slope, 2), Table::fmt(fit.r_squared, 3)});
  fitrow.print("E5 fit");
}

}  // namespace

void e4_e5_double_tree(const sim::Options& options) {
  connectivity_threshold(options);
  local_routing_cost(options);
  oracle_routing_cost(options);
}

}  // namespace faultroute::paper
