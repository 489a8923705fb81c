// E8 — the Section 6 open question: constant-degree, logarithmic-diameter
// families "often used in parallel computing" (De Bruijn, shuffle-exchange,
// butterfly; plus cycle+matching from the introduction). Do their routing
// and percolation transitions coincide (mesh-like) or split (hypercube-like)?
//
// Method: for each family we
//   (a) bisect the giant-component threshold p_c,
//   (b) route between far-apart pairs with a *table-guided best-first*
//       local router (fault-free distance tables are legitimate: the
//       topology is known, only the faults are discovered at runtime),
//       conditioned on {u ~ v}, at p just above p_c and at p = 0.9,
//   (c) sweep the graph size N and report how the probe count scales:
//       polylog(N)-ish growth means routing stays efficient right above
//       p_c (mesh-like); growth proportional to N means the router must
//       see a constant fraction of the graph (hypercube-like).

#include "experiments.hpp"

#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>

#include "analysis/table.hpp"
#include "core/experiment.hpp"
#include "graph/butterfly.hpp"
#include "graph/cycle_matching.hpp"
#include "graph/de_bruijn.hpp"
#include "graph/shuffle_exchange.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/threshold.hpp"
#include "random/rng.hpp"
#include "sim/options.hpp"

// analyze:allow-file-hot-alloc(bench-local reference routers keep per-message search state on purpose: the benchmark measures the batched executor against exactly this baseline)
namespace faultroute::paper {
namespace {

/// Best-first local router guided by a precomputed fault-free
/// distance-to-target table (one BFS from the target in the base topology).
class TableGuidedRouter final : public Router {
 public:
  std::optional<Path> route(ProbeContext& ctx, VertexId u, VertexId v) override {
    if (u == v) return Path{u};
    const Topology& graph = ctx.graph();
    build_table(graph, v);
    using Entry = std::pair<std::uint32_t, VertexId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;
    std::unordered_map<VertexId, VertexId> parent;
    parent.emplace(u, u);
    frontier.emplace(distance_to_target(u), u);
    while (!frontier.empty()) {
      const auto [d, x] = frontier.top();
      frontier.pop();
      for (int i = 0; i < graph.degree(x); ++i) {
        const VertexId y = graph.neighbor(x, i);
        if (parent.contains(y)) continue;
        if (!ctx.probe(x, i)) continue;
        parent.emplace(y, x);
        if (y == v) {
          Path path;
          for (VertexId z = v;; z = parent.at(z)) {
            path.push_back(z);
            if (z == u) break;
          }
          std::reverse(path.begin(), path.end());
          return path;
        }
        frontier.emplace(distance_to_target(y), y);
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] std::string name() const override { return "table-guided-best-first"; }

 private:
  void build_table(const Topology& graph, VertexId target) {
    if (target == table_target_ && !table_.empty()) return;
    table_.clear();
    table_target_ = target;
    std::queue<VertexId> queue;
    table_.emplace(target, 0);
    queue.push(target);
    while (!queue.empty()) {
      const VertexId x = queue.front();
      queue.pop();
      const std::uint32_t dx = table_.at(x);
      for (int i = 0; i < graph.degree(x); ++i) {
        const VertexId y = graph.neighbor(x, i);
        if (table_.contains(y)) continue;
        table_.emplace(y, dx + 1);
        queue.push(y);
      }
    }
  }

  [[nodiscard]] std::uint32_t distance_to_target(VertexId x) const {
    const auto it = table_.find(x);
    return it != table_.end() ? it->second : ~0U;
  }

  VertexId table_target_ = ~0ULL;
  std::unordered_map<VertexId, std::uint32_t> table_;
};

struct Family {
  std::string label;
  std::function<std::unique_ptr<Topology>(int k)> make;
};

VertexId far_vertex(const Topology& graph, VertexId u, std::uint64_t seed) {
  VertexId best_v = graph.num_vertices() - 1;
  std::uint64_t best = graph.distance(u, best_v);
  Rng pick(seed);
  for (int c = 0; c < 16; ++c) {
    const VertexId candidate = uniform_below(pick, graph.num_vertices());
    const std::uint64_t d = graph.distance(u, candidate);
    if (d > best && d < graph.num_vertices()) {
      best = d;
      best_v = candidate;
    }
  }
  return best_v;
}

}  // namespace

void e8_extension_topologies(const sim::Options& options) {
  const std::vector<int> orders = options.quick ? std::vector<int>{9, 11}
                                                : std::vector<int>{9, 11, 13};
  const std::vector<Family> families = {
      {"de_bruijn", [](int k) { return std::make_unique<DeBruijn>(k); }},
      {"shuffle_exchange", [](int k) { return std::make_unique<ShuffleExchange>(k); }},
      {"butterfly",
       [](int k) {
         // Match vertex count ~ 2^k: butterfly(k') has k' * 2^k' vertices.
         const int kp = k - 3;
         return std::make_unique<Butterfly>(kp < 2 ? 2 : kp);
       }},
      {"cycle_matching",
       [](int k) { return std::make_unique<CycleWithMatching>(1ULL << k, 12345); }},
  };

  Table table({"family", "N", "p_c_est", "p", "median_probes", "probes/N",
               "mean_path_len", "pair_dist"});
  Table verdict({"family", "p", "probes_growth", "N_growth", "reading"});

  for (const Family& family : families) {
    // (a) p_c on the smallest size (thresholds drift little with N here).
    const auto small = family.make(orders.front());
    ThresholdConfig tconfig;
    tconfig.target_fraction = 0.2;
    tconfig.trials_per_point = options.quick ? 3 : 5;
    tconfig.tolerance = 0.01;
    tconfig.seed = derive_seed(options.seed, std::hash<std::string>{}(family.label));
    const auto order_param = [&small](double p, std::uint64_t seed) {
      return analyze_components(*small, HashEdgeSampler(p, seed)).largest_fraction();
    };
    const double pc = estimate_threshold(order_param, 0.05, 0.95, tconfig);

    for (const double p : {std::min(0.95, pc + 0.08), 0.9}) {
      double first_probes = 0;
      double last_probes = 0;
      double first_n = 0;
      double last_n = 0;
      for (const int k : orders) {
        const auto graph = family.make(k);
        const VertexId u = 0;
        const VertexId v = far_vertex(*graph, u, derive_seed(options.seed, 0xfa7));
        TableGuidedRouter router;
        ExperimentConfig config;
        config.trials = options.trials_or(12);
        config.base_seed =
            derive_seed(options.seed, tconfig.seed + static_cast<std::uint64_t>(p * 100) +
                                          static_cast<std::uint64_t>(k) * 977);
        const ExperimentSummary s = measure_routing(*graph, p, router, u, v, config);
        table.add_row(
            {family.label, Table::fmt(graph->num_vertices()), Table::fmt(pc, 3),
             Table::fmt(p, 3), Table::fmt(s.median_distinct, 0),
             Table::fmt(s.median_distinct / static_cast<double>(graph->num_vertices()), 3),
             Table::fmt(s.mean_path_edges, 1), Table::fmt(graph->distance(u, v))});
        if (first_n == 0) {
          first_n = static_cast<double>(graph->num_vertices());
          first_probes = s.median_distinct;
        }
        last_n = static_cast<double>(graph->num_vertices());
        last_probes = s.median_distinct;
      }
      const double probe_growth = last_probes / std::max(1.0, first_probes);
      const double n_growth = last_n / first_n;
      verdict.add_row({family.label, Table::fmt(p, 3), Table::fmt(probe_growth, 1),
                       Table::fmt(n_growth, 1),
                       probe_growth > 0.5 * n_growth ? "~linear in N (hypercube-like)"
                                                     : "sublinear (mesh-like)"});
    }
  }
  table.print(
      "E8: Section-6 families — table-guided local routing cost vs graph size, "
      "just above p_c and at p = 0.9");
  if (const auto path = options.csv_path("e8_extension_topologies")) table.write_csv(*path);
  verdict.print(
      "E8 verdict: probe growth across sizes (paper leaves the transition "
      "location open for these families)");
  if (const auto path = options.csv_path("e8_verdict")) verdict.write_csv(*path);
}

}  // namespace faultroute::paper
