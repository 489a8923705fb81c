#include "core/path.hpp"

#include "graph/key_slots.hpp"

namespace faultroute {

bool is_valid_open_path(const Topology& graph, const EdgeSampler& sampler,
                        const Path& path, VertexId from, VertexId to) {
  return is_valid_open_path(AdjacencyView(graph, nullptr), sampler, path, from, to);
}

bool is_valid_open_path(const AdjacencyView& adj, const EdgeSampler& sampler,
                        const Path& path, VertexId from, VertexId to) {
  if (path.empty()) return false;
  if (path.front() != from || path.back() != to) return false;
  const FlatAdjacency* flat = adj.flat();
  for (std::size_t step = 0; step + 1 < path.size(); ++step) {
    const VertexId a = path[step];
    const VertexId b = path[step + 1];
    // Accept the edge if *any* parallel copy of {a, b} is open.
    bool ok = false;
    if (flat != nullptr) {
      const std::uint64_t end = flat->row_end(a);
      for (std::uint64_t pos = flat->row_begin(a); pos < end && !ok; ++pos) {
        if (flat->neighbor_at(pos) == b &&
            sampler.is_open_indexed(flat->edge_id_at(pos), flat->edge_key_at(pos))) {
          ok = true;
        }
      }
    } else {
      const Topology& graph = adj.graph();
      const int deg = graph.degree(a);
      for (int i = 0; i < deg && !ok; ++i) {
        if (graph.neighbor(a, i) == b && sampler.is_open(graph.edge_key(a, i))) ok = true;
      }
    }
    if (!ok) return false;
  }
  return true;
}

// analyze:allow-hot-alloc(simplify_walk materializes one output path per message; state is bounded by walk length)
Path simplify_walk(const Path& walk) {
  Path out;
  out.reserve(walk.size());
  // vertex -> index in out where it was last recorded. Cutting a loop
  // leaves the entries of the dropped vertices behind (lazy deletion): a
  // recorded position j for v is live iff j < out.size() && out[j] == v.
  KeySlots<> position;
  position.reserve(walk.size());
  for (const VertexId v : walk) {
    std::uint64_t j = 0;
    if (position.find(v, j) && j < out.size() && out[j] == v) {
      // Cut the loop: drop everything after the first occurrence of v.
      out.resize(j + 1);
    } else {
      position.assign(v, out.size());
      out.push_back(v);
    }
  }
  return out;
}

std::size_t path_length(const Path& path) {
  return path.empty() ? 0 : path.size() - 1;
}

}  // namespace faultroute
