// E3 — Theorem 4: on the d-dimensional mesh, local routing costs O(n) probes
// for every fixed p above the percolation threshold p_c(d).
//
// We route between vertices at mesh distance n with the paper's landmark
// algorithm, sweep p through p_c (p_c(2) = 1/2, p_c(3) ~ 0.2488), and fit
// mean probes vs n. Paper's shape: the fit is linear (slope exponent ~ 1 in
// log-log), with the constant growing as p approaches p_c from above but the
// *linearity in n* persisting for every p > p_c.

#include "experiments.hpp"

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "core/experiment.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/mesh.hpp"
#include "random/rng.hpp"
#include "sim/options.hpp"

namespace faultroute::paper {
namespace {

struct MeshSetting {
  int dim;
  std::vector<double> ps;
  std::vector<std::int64_t> distances;
  std::int64_t margin;  // cube extends this far around the routed segment
};

void run_setting(const sim::Options& options, const MeshSetting& setting, Table& table,
                 Table& fits) {
  const int trials = options.trials_or(30);
  for (const double p : setting.ps) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const std::int64_t n : setting.distances) {
      if (options.quick && n > 64) continue;
      const std::int64_t side = n + 2 * setting.margin;
      const Mesh mesh(setting.dim, side);
      Mesh::Coords cu{};
      Mesh::Coords cv{};
      for (int a = 0; a < setting.dim; ++a) cu[static_cast<std::size_t>(a)] = setting.margin;
      cv = cu;
      cv[0] += n;  // v is n steps along axis 0: d(u, v) = n
      const VertexId u = mesh.vertex_at(cu);
      const VertexId v = mesh.vertex_at(cv);

      LandmarkRouter router;
      ExperimentConfig config;
      config.trials = trials;
      config.base_seed = derive_seed(
          options.seed, static_cast<std::uint64_t>(setting.dim) * 1000000 +
                            static_cast<std::uint64_t>(p * 1000) * 512 +
                            static_cast<std::uint64_t>(n));
      const ExperimentSummary s = measure_routing(mesh, p, router, u, v, config);
      table.add_row({Table::fmt(setting.dim), Table::fmt(p, 3),
                     Table::fmt(static_cast<std::uint64_t>(n)),
                     Table::fmt(s.mean_distinct, 0), Table::fmt(s.median_distinct, 0),
                     Table::fmt(s.mean_distinct / static_cast<double>(n), 1),
                     Table::fmt(s.mean_path_edges, 1), Table::fmt(s.rejection_rate, 2)});
      xs.push_back(static_cast<double>(n));
      ys.push_back(s.median_distinct);  // medians: robust to near-critical excursions
    }
    if (xs.size() >= 2) {
      const LinearFit loglog = log_log_fit(xs, ys);
      const LinearFit linear = linear_fit(xs, ys);
      fits.add_row({Table::fmt(setting.dim), Table::fmt(p, 3),
                    Table::fmt(loglog.slope, 2), Table::fmt(linear.slope, 1),
                    Table::fmt(loglog.r_squared, 3)});
    }
  }
}

}  // namespace

void e3_mesh_routing(const sim::Options& options) {
  Table table({"d", "p", "n", "mean_probes", "median_probes", "probes_per_n",
               "mean_path_len", "reject_rate"});
  Table fits({"d", "p", "loglog_exponent", "probes_per_step", "r2"});

  // d = 2: p_c = 1/2. Sweep from just above critical to far supercritical.
  run_setting(options, {2, {0.55, 0.60, 0.70, 0.85}, {16, 32, 64, 128}, 24}, table, fits);
  // d = 3: p_c ~ 0.2488.
  run_setting(options, {3, {0.30, 0.35, 0.45}, {8, 16, 32}, 10}, table, fits);

  table.print("E3: mesh local routing complexity vs distance n (landmark router)");
  if (const auto path = options.csv_path("e3_mesh_routing")) table.write_csv(*path);
  fits.print(
      "E3 fits: probes ~ n^exponent (paper: exponent = 1, i.e. O(n) for all p > p_c)");
  if (const auto path = options.csv_path("e3_fits")) fits.write_csv(*path);
}

}  // namespace faultroute::paper
