// E6 — Theorems 10 and 11: routing in G_{n,p} with p = c/n.
//
// Local routing costs Theta(n^2) probes (Theorem 10's Omega(n^2) is realised
// by the target-first flood router); the paper's bidirectional oracle router
// costs Theta(n^{3/2}) (Theorem 11) — oracle beats local by exactly sqrt(n).
//
// We sweep n, fit log-log exponents (expect ~2.0 and ~1.5) and compare the
// measured local/oracle gap against sqrt(n).

#include "experiments.hpp"

#include <cmath>

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "core/experiment.hpp"
#include "core/routers/gnp_routers.hpp"
#include "graph/complete.hpp"
#include "random/rng.hpp"
#include "sim/options.hpp"

namespace faultroute::paper {
namespace {

constexpr double kC = 3.0;  // mean degree: p = c/n, supercritical (c > 1)

ExperimentSummary measure(const sim::Options& options, Router& router, std::uint64_t n,
                          int trials) {
  const CompleteGraph g(n);
  ExperimentConfig config;
  config.trials = trials;
  config.base_seed = derive_seed(options.seed, n * 31 + (router.required_mode() ==
                                                         RoutingMode::kOracle));
  return measure_routing(g, kC / static_cast<double>(n), router, 0, n - 1, config);
}

}  // namespace

void e6_gnp_routing(const sim::Options& options) {
  const std::vector<std::uint64_t> local_sizes =
      options.quick ? std::vector<std::uint64_t>{250, 500, 1000}
                    : std::vector<std::uint64_t>{500, 1000, 2000, 4000};
  const std::vector<std::uint64_t> oracle_sizes =
      options.quick ? std::vector<std::uint64_t>{500, 1000, 2000, 4000}
                    : std::vector<std::uint64_t>{500, 1000, 2000, 4000, 8000};
  const int trials = options.trials_or(12);

  Table table({"router", "n", "mean_probes", "median_probes", "probes/n^2",
               "probes/n^1.5"});
  std::vector<double> lx;
  std::vector<double> ly;
  std::vector<double> ox;
  std::vector<double> oy;

  GnpLocalRouter local;
  for (const std::uint64_t n : local_sizes) {
    const ExperimentSummary s = measure(options, local, n, trials);
    const double dn = static_cast<double>(n);
    table.add_row({"local", Table::fmt(n), Table::fmt(s.mean_distinct, 0),
                   Table::fmt(s.median_distinct, 0),
                   Table::fmt(s.mean_distinct / (dn * dn), 4),
                   Table::fmt(s.mean_distinct / std::pow(dn, 1.5), 3)});
    lx.push_back(dn);
    ly.push_back(s.mean_distinct);
  }
  GnpOracleRouter oracle;
  for (const std::uint64_t n : oracle_sizes) {
    const ExperimentSummary s = measure(options, oracle, n, trials);
    const double dn = static_cast<double>(n);
    table.add_row({"oracle", Table::fmt(n), Table::fmt(s.mean_distinct, 0),
                   Table::fmt(s.median_distinct, 0),
                   Table::fmt(s.mean_distinct / (dn * dn), 4),
                   Table::fmt(s.mean_distinct / std::pow(dn, 1.5), 3)});
    ox.push_back(dn);
    oy.push_back(s.mean_distinct);
  }
  table.print("E6: G_{n,c/n} routing complexity, c = 3 (local vs oracle)");
  if (const auto path = options.csv_path("e6_gnp_routing")) table.write_csv(*path);

  const LinearFit local_fit = log_log_fit(lx, ly);
  const LinearFit oracle_fit = log_log_fit(ox, oy);
  Table fits({"router", "loglog_exponent", "paper", "r2"});
  fits.add_row({"local", Table::fmt(local_fit.slope, 2), "2.0 (Thm 10)",
                Table::fmt(local_fit.r_squared, 3)});
  fits.add_row({"oracle", Table::fmt(oracle_fit.slope, 2), "1.5 (Thm 11)",
                Table::fmt(oracle_fit.r_squared, 3)});
  fits.print("E6 fits: complexity exponents");
  if (const auto path = options.csv_path("e6_fits")) fits.write_csv(*path);

  // Gap at the common sizes: local/oracle should scale like sqrt(n).
  Table gap({"n", "local_mean", "oracle_mean", "gap", "sqrt(n)"});
  for (std::size_t i = 0; i < lx.size(); ++i) {
    for (std::size_t j = 0; j < ox.size(); ++j) {
      if (lx[i] == ox[j]) {
        gap.add_row({Table::fmt(lx[i], 0), Table::fmt(ly[i], 0), Table::fmt(oy[j], 0),
                     Table::fmt(ly[i] / oy[j], 1), Table::fmt(std::sqrt(lx[i]), 1)});
      }
    }
  }
  gap.print("E6 gap: local/oracle ratio vs sqrt(n) (paper: gap = Theta(sqrt n))");
  if (const auto path = options.csv_path("e6_gap")) gap.write_csv(*path);
}

}  // namespace faultroute::paper
