// E2 — the lower-bound mechanism of Theorem 3(i) / Lemma 5.
//
// The proof partitions the hypercube with S = a ball of radius l around the
// target v and bounds eta = Pr[(v ~ e) in S] for a *fixed* edge e on the
// boundary of S. Two measurable ingredients:
//   (a) eta: the probability that a fixed vertex x at distance exactly l
//       from v connects to v by an open path inside the ball. The proof
//       bounds it by l! p^l / (1 - n l^2 p^2) (path counting: |A_k| <=
//       n^k l^{2k} l!); for p = n^{-alpha}, alpha > 1/2, it decays
//       super-polynomially in l. This is what forces a local router to try
//       ~ 1/eta boundary edges.
//   (b) tree-likeness: the open cluster of v inside the ball should contain
//       almost no cycles (excess = open edges - (vertices - 1) ~ 0), which
//       is what makes the "penetrate a tree through its leaves" picture of
//       Section 3 accurate.

#include "experiments.hpp"

#include <cmath>
#include <limits>
#include <queue>
#include <unordered_map>

#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "graph/hypercube.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/rng.hpp"
#include "sim/options.hpp"
#include "sim/sweep.hpp"

namespace faultroute::paper {
namespace {

struct BallProbe {
  bool target_reached = false;       // fixed boundary vertex reached inside S
  std::uint64_t cluster_vertices = 0;
  std::uint64_t cluster_open_edges = 0;  // open in-ball edges among the cluster
};

/// BFS from v over open edges restricted to the ball B_l(v). Reports whether
/// the fixed vertex `target` (at distance exactly l) was reached, and the
/// cycle excess of the explored cluster.
BallProbe probe_ball(const Hypercube& cube, const EdgeSampler& sampler, VertexId v,
                     VertexId target, int radius) {
  BallProbe result;
  std::unordered_map<VertexId, int> dist;
  std::queue<VertexId> queue;
  dist.emplace(v, 0);
  queue.push(v);
  while (!queue.empty()) {
    const VertexId x = queue.front();
    queue.pop();
    const int dx = dist.at(x);
    if (dx == radius) continue;  // boundary sphere: do not expand outwards
    for (int i = 0; i < cube.degree(x); ++i) {
      const VertexId y = cube.neighbor(x, i);
      if (static_cast<int>(cube.distance(v, y)) > radius) continue;  // outside S
      if (!sampler.is_open(cube.edge_key(x, i))) continue;
      if (dist.contains(y)) continue;
      dist.emplace(y, dx + 1);
      if (y == target) result.target_reached = true;
      queue.push(y);
    }
  }
  result.cluster_vertices = dist.size();
  // Post-hoc census of open in-ball edges with both endpoints in the
  // cluster (catches boundary-incident edges the BFS did not traverse).
  for (const auto& [x, dx] : dist) {
    for (int i = 0; i < cube.degree(x); ++i) {
      const VertexId y = cube.neighbor(x, i);
      if (y < x || !dist.contains(y)) continue;
      if (sampler.is_open(cube.edge_key(x, i))) ++result.cluster_open_edges;
    }
  }
  return result;
}

}  // namespace

void e2_hypercube_ball(const sim::Options& options) {
  const std::vector<int> dims = options.quick ? std::vector<int>{12, 16}
                                              : std::vector<int>{12, 16, 20};
  const std::vector<double> alphas = {0.6, 0.7, 0.8};
  const std::vector<int> radii = {2, 3, 4};
  const int trials = options.trials_or(3000);

  Table table({"n", "alpha", "radius", "eta_measured", "eta_CI_high", "leading l!p^l",
               "full_bound", "mean_cycle_excess"});
  for (const int n : dims) {
    const Hypercube cube(n);
    for (const double alpha : alphas) {
      const double p = sim::p_for_alpha(n, alpha);
      for (const int l : radii) {
        std::uint64_t hits = 0;
        Summary excess;
        for (int t = 0; t < trials; ++t) {
          const std::uint64_t seed =
              derive_seed(options.seed, static_cast<std::uint64_t>(n) * 1000000 +
                                            static_cast<std::uint64_t>(alpha * 1000) * 100 +
                                            static_cast<std::uint64_t>(l) * 10000 +
                                            static_cast<std::uint64_t>(t));
          const HashEdgeSampler sampler(p, seed);
          // Random centre and a fixed boundary vertex: flip the low l bits.
          Rng rng(seed);
          const VertexId v = uniform_below(rng, cube.num_vertices());
          const VertexId x = v ^ ((1ULL << l) - 1);
          const BallProbe probe = probe_ball(cube, sampler, v, x, l);
          hits += probe.target_reached ? 1 : 0;
          excess.add(static_cast<double>(probe.cluster_open_edges) -
                     (static_cast<double>(probe.cluster_vertices) - 1.0));
        }
        const Interval ci = wilson_interval(hits, static_cast<std::uint64_t>(trials));
        // The proof's bound is l! p^l / (1 - n l^2 p^2): the leading term is
        // l! p^l; the denominator only converges once n^{1-2alpha} l^2 < 1,
        // which at laptop-scale n may fail ("inf" below) even though the
        // leading term already describes the measured decay.
        const double leading = std::tgamma(l + 1.0) * std::pow(p, l);
        const double denom = 1.0 - static_cast<double>(n) * l * l * p * p;
        const double bound =
            denom > 0 ? leading / denom : std::numeric_limits<double>::infinity();
        table.add_row({Table::fmt(n), Table::fmt(alpha, 2), Table::fmt(l),
                       Table::fmt(static_cast<double>(hits) / trials, 5),
                       Table::fmt(ci.high, 5), Table::fmt(leading, 5),
                       Table::fmt(bound, 5), Table::fmt(excess.mean(), 4)});
      }
    }
  }
  table.print(
      "E2: probability a fixed radius-l boundary vertex connects to v inside the "
      "ball (paper bound: eta <= l! p^l / (1 - n l^2 p^2)), and cycle excess of "
      "the in-ball cluster (tree-like ~ 0)");
  if (const auto path = options.csv_path("e2_hypercube_ball")) table.write_csv(*path);
}

}  // namespace faultroute::paper
