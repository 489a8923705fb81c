#include "percolation/cluster_analysis.hpp"

#include <unistd.h>

#include <limits>
#include <new>
#include <stdexcept>
#include <string>

#include "percolation/open_search.hpp"

namespace faultroute {

namespace {

/// Applies `fn(v, w)` to every open edge, visiting each undirected edge once
/// (from its lower-id endpoint; parallel edges appear as separate slots of
/// that endpoint, so they stay exact). One sweep over either adjacency
/// backend: CSR rows with indexed sampler queries when flat, the virtual
/// interface otherwise — identical visit order and verdicts.
template <typename Fn>
void for_each_open_edge(const Topology& graph, const EdgeSampler& sampler, AdjacencyMode mode,
                        Fn&& fn) {
  const auto sweep = [&](const auto& rows) {
    const std::uint64_t n = rows.num_vertices();
    for (VertexId v = 0; v < n; ++v) {
      const auto row = rows.row(v);
      for (int i = 0; i < row.degree; ++i) {
        const VertexId w = rows.neighbor(row, i);
        if (w <= v) continue;  // visit each edge from its lower endpoint only
        if (rows.is_open(sampler, row, i)) fn(v, w);
      }
    }
  };
  if (const FlatAdjacency* flat = resolve_adjacency(graph, mode)) {
    sweep(CsrRows{flat});
  } else {
    sweep(TopologyRows{&graph});
  }
}

/// The union-find over every vertex of `graph`, or std::length_error naming
/// the topology, vertex count and byte count when it cannot fit: checked
/// against physical memory before allocating, and a std::bad_alloc from the
/// allocation itself maps to the same message.
UnionFind sized_union_find(const Topology& graph) {
  const std::uint64_t n = graph.num_vertices();
  const std::uint64_t max_u64 = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t bytes =
      n > max_u64 / UnionFind::kBytesPerElement ? max_u64 : n * UnionFind::kBytesPerElement;
  const auto too_large = [&] {
    return std::length_error("union-find over " + graph.name() + " needs " +
                             std::to_string(bytes) + " bytes for " + std::to_string(n) +
                             " vertices, more than this machine can allocate");
  };
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_size = sysconf(_SC_PAGE_SIZE);
  if (pages > 0 && page_size > 0 &&
      bytes / static_cast<std::uint64_t>(page_size) >= static_cast<std::uint64_t>(pages)) {
    throw too_large();
  }
  try {
    return UnionFind(n);
  } catch (const std::bad_alloc&) {
    throw too_large();
  }
}

}  // namespace

ClusterDecomposition::ClusterDecomposition(const Topology& graph, const EdgeSampler& sampler,
                                           AdjacencyMode mode)
    : dsu_(sized_union_find(graph)), largest_root_(0) {
  summary_.num_vertices = graph.num_vertices();
  const auto accumulate = [this](VertexId a, VertexId b) {
    ++summary_.num_open_edges;
    dsu_.unite(a, b);
  };
  for_each_open_edge(graph, sampler, mode, accumulate);
  summary_.num_components = dsu_.num_components();
  // Scan roots for the two largest clusters.
  for (VertexId v = 0; v < summary_.num_vertices; ++v) {
    if (dsu_.find(v) != v) continue;
    const std::uint64_t size = dsu_.size_of(v);
    if (size > summary_.largest) {
      summary_.second_largest = summary_.largest;
      summary_.largest = size;
      largest_root_ = v;
    } else if (size > summary_.second_largest) {
      summary_.second_largest = size;
    }
  }
}

bool ClusterDecomposition::in_largest_cluster(VertexId v) {
  return dsu_.find(v) == largest_root_;
}

ComponentSummary analyze_components(const Topology& graph, const EdgeSampler& sampler,
                                    AdjacencyMode mode) {
  return ClusterDecomposition(graph, sampler, mode).summary();
}

std::vector<VertexId> open_cluster_of(const Topology& graph, const EdgeSampler& sampler,
                                      VertexId source, std::uint64_t max_vertices,
                                      AdjacencyMode mode) {
  return detail::with_open_search(
      graph, sampler, mode,
      [&](const auto& rows, auto& marks, std::vector<VertexId>& queue, const auto& open) {
        // The cap is checked before each pop and after each push; the
        // pre-pop check can only fire first when the cap is one.
        if (max_vertices == 1) return std::vector<VertexId>{source};
        breadth_first_search(rows, marks, queue, source, open,
                             [&](const auto& /*marks*/, VertexId /*y*/, std::uint64_t /*depth*/) {
                               return max_vertices == 0 || queue.size() < max_vertices;
                             });
        return queue;  // the BFS queue is the visit order
      });
}

std::optional<bool> open_connected(const Topology& graph, const EdgeSampler& sampler,
                                   VertexId u, VertexId v, std::uint64_t max_vertices,
                                   AdjacencyMode mode) {
  if (u == v) return true;
  return detail::with_open_search(
      graph, sampler, mode,
      [&](const auto& rows, auto& marks, std::vector<VertexId>& queue, const auto& open) {
        std::optional<bool> connected = false;  // exhausted the cluster
        breadth_first_search(rows, marks, queue, u, open,
                             [&](const auto& /*marks*/, VertexId y, std::uint64_t /*depth*/) {
                               if (y == v) {
                                 connected = true;
                                 return false;
                               }
                               if (max_vertices != 0 && queue.size() >= max_vertices) {
                                 connected = std::nullopt;  // unknown
                                 return false;
                               }
                               return true;
                             });
        return connected;
      });
}

ExplicitGraph materialize_open_subgraph(const Topology& graph, const EdgeSampler& sampler,
                                        AdjacencyMode mode) {
  ExplicitGraph::EdgeList edges;
  const auto collect = [&edges](VertexId a, VertexId b) { edges.emplace_back(a, b); };
  for_each_open_edge(graph, sampler, mode, collect);
  return ExplicitGraph(graph.num_vertices(), edges);
}

}  // namespace faultroute
