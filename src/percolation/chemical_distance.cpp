#include "percolation/chemical_distance.hpp"

#include "percolation/open_search.hpp"

namespace faultroute {

ChemicalPathResult chemical_path(const Topology& graph, const EdgeSampler& sampler,
                                 VertexId u, VertexId v, std::uint64_t max_vertices,
                                 AdjacencyMode mode) {
  if (u == v) return {0, {u}};
  return detail::with_open_search(
      graph, sampler, mode,
      [&](const auto& rows, auto& marks, std::vector<VertexId>& queue, const auto& open) {
        ChemicalPathResult result;  // nullopt: disconnected, or unknown at the cap
        breadth_first_search(rows, marks, queue, u, open,
                             [&](const auto& parent, VertexId y, std::uint64_t depth) {
                               if (y == v) {
                                 result.distance = depth;
                                 result.path = path_from_parents(parent, v);
                                 return false;
                               }
                               return max_vertices == 0 || queue.size() < max_vertices;
                             });
        return result;
      });
}

std::optional<std::uint64_t> chemical_distance(const Topology& graph,
                                               const EdgeSampler& sampler, VertexId u,
                                               VertexId v, std::uint64_t max_vertices,
                                               AdjacencyMode mode) {
  return chemical_path(graph, sampler, u, v, max_vertices, mode).distance;
}

}  // namespace faultroute
