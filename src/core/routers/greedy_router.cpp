#include "core/routers/greedy_router.hpp"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "graph/distance_oracle.hpp"
#include "graph/flat_adjacency.hpp"

// analyze:allow-file-hot-alloc(per-message best-first search: candidate ranking is bounded by degree, the metric baseline the distance oracle accelerates)
namespace faultroute {

namespace {

/// Indices of v's incident edges sorted by the fault-free distance from the
/// resulting neighbor to the target (ties broken by index for determinism).
/// Neighbor scans go through the adjacency view (CSR row when a snapshot is
/// up); the metric resolves through `col` (a cached oracle column, or
/// nullptr for graph.distance — identical values either way).
std::vector<int> edges_by_target_distance(const AdjacencyView& adj, const std::uint32_t* col,
                                          VertexId x, VertexId v) {
  const Topology& graph = adj.graph();
  const int deg = adj.degree(x);
  std::vector<std::pair<std::uint64_t, int>> ranked;
  ranked.reserve(static_cast<std::size_t>(deg));
  for (int i = 0; i < deg; ++i) {
    ranked.emplace_back(metric_distance(graph, col, adj.neighbor(x, i), v), i);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<int> order;
  order.reserve(ranked.size());
  for (const auto& [dist, i] : ranked) order.push_back(i);
  return order;
}

/// The best-first search loop, templated over the marks backend (dense
/// vertex-indexed arrays on the flat adjacency path, hash maps on the
/// implicit path; marks never affect expansion order).
template <typename Marks>
std::optional<Path> best_first_search(ProbeContext& ctx, const AdjacencyView& adj,
                                      const std::uint32_t* col, VertexId u, VertexId v,
                                      Marks& parent, Marks& expanded) {
  const Topology& graph = adj.graph();
  const std::uint64_t n = graph.num_vertices();
  parent.begin(n);
  expanded.begin(n);
  using Entry = std::pair<std::uint64_t, VertexId>;  // (distance-to-target, vertex)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;
  parent.emplace(u, u);
  frontier.emplace(metric_distance(graph, col, u, v), u);
  while (!frontier.empty()) {
    const auto [dist, x] = frontier.top();
    frontier.pop();
    if (!expanded.emplace(x, x)) continue;  // already expanded
    ctx.note_expansion();
    for (const int i : edges_by_target_distance(adj, col, x, v)) {
      const VertexId y = adj.neighbor(x, i);
      if (parent.contains(y)) continue;
      if (!ctx.probe(x, i)) continue;
      parent.emplace(y, x);
      if (y == v) return path_from_parents(parent, v);
      frontier.emplace(metric_distance(graph, col, y, v), y);
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<Path> GreedyDescentRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  const Topology& graph = ctx.graph();
  const AdjacencyView adj(graph, ctx.flat_adjacency());
  const std::uint32_t* col = ctx.target_distances(v);
  Path path{u};
  VertexId x = u;
  while (x != v) {
    ctx.note_expansion();  // each visited vertex is this router's "frontier pop"
    const std::uint64_t dx = metric_distance(graph, col, x, v);
    bool moved = false;
    for (const int i : edges_by_target_distance(adj, col, x, v)) {
      const VertexId y = adj.neighbor(x, i);
      if (metric_distance(graph, col, y, v) >= dx) break;  // improving edges exhausted
      if (ctx.probe(x, i)) {
        path.push_back(y);
        x = y;
        moved = true;
        break;
      }
    }
    if (!moved) return std::nullopt;  // stuck: pure greedy gives up
  }
  return path;
}

std::optional<Path> BestFirstRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  if (u == v) return Path{u};
  const AdjacencyView adj(ctx.graph(), ctx.flat_adjacency());
  const std::uint32_t* col = ctx.target_distances(v);
  if (ctx.flat_adjacency() != nullptr) {
    return best_first_search(ctx, adj, col, u, v, dense_parent_, dense_expanded_);
  }
  return best_first_search(ctx, adj, col, u, v, hash_parent_, hash_expanded_);
}

}  // namespace faultroute
