#pragma once

#include <cstdint>
#include <vector>

#include "core/path.hpp"
#include "core/probe_context.hpp"
#include "graph/bfs.hpp"
#include "graph/flat_adjacency.hpp"

// analyze:allow-file-hot-alloc(landmark walk: the pooled queue retains capacity across segments; segment and walk splices materialize the result path)
namespace faultroute::detail {

/// The landmark walk of Theorems 3(ii)/4, shared by LandmarkRouter (the
/// whole algorithm) and HybridGreedyRouter (its repair phase), templated
/// over the marks backend (graph/bfs.hpp):
///
///   1. fix the fault-free shortest path from .. v as landmarks;
///   2. from the furthest landmark reached, BFS over open probed edges
///      until a strictly later landmark appears;
///   3. repeat until v.
///
/// Extends `walk` in place from its last vertex (`from`); returns false if
/// the base topology is disconnected or the open cluster is exhausted
/// (u !~ v), leaving `walk` in an unspecified partial state. `pos_of`
/// records each landmark's position along the base path; `parent` is
/// re-begun per BFS segment; `queue` is a pooled vector with a head cursor
/// (identical FIFO order to a std::queue).
template <typename Marks>
bool landmark_walk(ProbeContext& ctx, const AdjacencyView& adj, VertexId from, VertexId v,
                   Path& walk, Marks& pos_of, Marks& parent, std::vector<VertexId>& queue) {
  const Topology& graph = adj.graph();
  const std::vector<VertexId> landmarks = graph.shortest_path(from, v);
  if (landmarks.empty()) return false;  // disconnected base topology

  // Position of each landmark along the base path (shortest-path vertices
  // are distinct).
  const std::uint64_t n = graph.num_vertices();
  pos_of.begin(n);
  for (std::size_t j = 0; j < landmarks.size(); ++j) {
    pos_of.emplace(landmarks[j], static_cast<VertexId>(j));
  }

  std::size_t pos = 0;
  while (pos + 1 < landmarks.size()) {
    // BFS over open probed edges from landmarks[pos] until a strictly later
    // landmark appears.
    const VertexId start = landmarks[pos];
    parent.begin(n);
    parent.emplace(start, start);
    queue.clear();
    queue.push_back(start);
    std::size_t head = 0;
    VertexId found = start;
    std::size_t found_pos = pos;
    while (head < queue.size() && found_pos == pos) {
      const VertexId x = queue[head++];
      ctx.note_expansion();
      const int deg = adj.degree(x);
      for (int i = 0; i < deg; ++i) {
        const VertexId y = adj.neighbor(x, i);
        if (parent.contains(y)) continue;
        if (!ctx.probe(x, i)) continue;
        parent.emplace(y, x);
        VertexId y_pos;
        if (pos_of.lookup(y, y_pos) && static_cast<std::size_t>(y_pos) > pos) {
          found = y;
          found_pos = static_cast<std::size_t>(y_pos);
          break;
        }
        queue.push_back(y);
      }
    }
    if (found_pos == pos) return false;  // exhausted the open cluster

    // Append the BFS segment start -> found (skipping `start`, already on
    // the walk).
    const Path segment = path_from_parents(parent, found);
    walk.insert(walk.end(), segment.begin() + 1, segment.end());
    pos = found_pos;
  }
  return true;
}

}  // namespace faultroute::detail
