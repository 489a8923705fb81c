#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/path.hpp"
#include "graph/bfs.hpp"

// analyze:allow-file-hot-alloc(search routers: pooled queues retain capacity across messages; a found path materializes one result)
namespace faultroute::detail {

/// The search bodies of FloodRouter and BidirectionalBfsRouter, written once
/// for both of their callers: the routers themselves (`Probe` =
/// ProbeContext) and the frontier block executor (`Probe` = its BatchProbe,
/// traffic/frontier_search.cpp). A probe type supplies `probe(x, i)` and
/// `note_expansion()`. `Rows` is CsrRows on the flat adjacency path or
/// TopologyRows on the implicit path, and `Marks` is DenseMarks or
/// HashMarks respectively (graph/bfs.hpp). Queues are caller-pooled
/// vectors with a head cursor — identical FIFO order to a std::queue, no
/// per-message allocation in steady state.

/// Local breadth-first flooding from u until v is reached. With
/// `probe_target_first`, each expanded vertex first probes its edge to v
/// when one exists.
template <typename Probe, typename Rows, typename Marks>
std::optional<Path> flood_search(Probe& probe, Rows rows, VertexId u, VertexId v,
                                 bool probe_target_first, Marks& parent,
                                 std::vector<VertexId>& queue) {
  parent.begin(rows.num_vertices());
  parent.emplace(u, u);
  queue.clear();
  queue.push_back(u);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId x = queue[head];
    probe.note_expansion();
    const auto row = rows.row(x);
    const int target_index = probe_target_first ? rows.edge_index_of(x, v) : -1;
    for (int step = (target_index >= 0 ? -1 : 0); step < row.degree; ++step) {
      const int i = (step == -1) ? target_index : step;
      if (step != -1 && i == target_index) continue;  // probed first already
      const VertexId y = rows.neighbor(row, i);
      if (parent.contains(y)) continue;
      if (!probe.probe(x, i)) continue;
      parent.emplace(y, x);
      if (y == v) return path_from_parents(parent, v);
      queue.push_back(y);
    }
  }
  return std::nullopt;
}

/// One BFS ball of bidirectional_search: parent marks plus a pooled
/// frontier whose live part is [head, size()).
template <typename Marks>
struct SearchBall {
  Marks* parent;
  std::vector<VertexId>* frontier;
  std::size_t head = 0;

  [[nodiscard]] std::size_t live() const { return frontier->size() - head; }
};

/// Open-edge BFS balls around both endpoints, always expanding the smaller
/// live frontier (ties: u side), until they touch.
template <typename Probe, typename Rows, typename Marks>
std::optional<Path> bidirectional_search(Probe& probe, Rows rows, VertexId u,
                                         VertexId v, SearchBall<Marks> from_u,
                                         SearchBall<Marks> from_v) {
  const std::uint64_t n = rows.num_vertices();
  from_u.parent->begin(n);
  from_v.parent->begin(n);
  from_u.frontier->clear();
  from_v.frontier->clear();
  from_u.parent->emplace(u, u);
  from_u.frontier->push_back(u);
  from_v.parent->emplace(v, v);
  from_v.frontier->push_back(v);

  const auto join = [&](VertexId meeting, VertexId via_u_side) {
    // Path = u .. via_u_side, meeting .. v. `meeting` is already in from_v.
    Path left = path_from_parents(*from_u.parent, via_u_side);
    const Path right = path_from_parents(*from_v.parent, meeting);  // v .. meeting
    left.insert(left.end(), right.rbegin(), right.rend());
    return simplify_walk(left);
  };

  while (from_u.live() > 0 || from_v.live() > 0) {
    const bool expand_u =
        from_u.live() > 0 && (from_v.live() == 0 || from_u.live() <= from_v.live());
    SearchBall<Marks>& mine = expand_u ? from_u : from_v;
    SearchBall<Marks>& other = expand_u ? from_v : from_u;
    const VertexId x = (*mine.frontier)[mine.head++];
    probe.note_expansion();
    const auto row = rows.row(x);
    for (int i = 0; i < row.degree; ++i) {
      const VertexId y = rows.neighbor(row, i);
      if (mine.parent->contains(y)) continue;
      if (!probe.probe(x, i)) continue;
      if (other.parent->contains(y)) {
        // The two balls touch along edge (x, y).
        if (expand_u) return join(y, x);
        return join(x, y);
      }
      mine.parent->emplace(y, x);
      mine.frontier->push_back(y);
    }
  }
  return std::nullopt;
}

}  // namespace faultroute::detail
