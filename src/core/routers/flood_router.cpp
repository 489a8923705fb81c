#include "core/routers/flood_router.hpp"

#include "core/routers/bfs_searches.hpp"
#include "graph/flat_adjacency.hpp"

namespace faultroute {

std::optional<Path> FloodRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  if (u == v) return Path{u};
  if (const FlatAdjacency* flat = ctx.flat_adjacency()) {
    return detail::flood_search(ctx, CsrRows{flat}, u, v, probe_target_first_, dense_parent_,
                                queue_);
  }
  return detail::flood_search(ctx, TopologyRows{&ctx.graph()}, u, v, probe_target_first_,
                              hash_parent_, queue_);
}

}  // namespace faultroute
