#include "core/routers/bidirectional_router.hpp"

#include "core/routers/bfs_searches.hpp"
#include "graph/flat_adjacency.hpp"

namespace faultroute {

std::optional<Path> BidirectionalBfsRouter::route(ProbeContext& ctx, VertexId u, VertexId v) {
  using detail::SearchBall;
  if (u == v) return Path{u};
  if (const FlatAdjacency* flat = ctx.flat_adjacency()) {
    return detail::bidirectional_search(ctx, CsrRows{flat}, u, v,
                                        SearchBall<DenseMarks>{&dense_parent_u_, &queue_u_},
                                        SearchBall<DenseMarks>{&dense_parent_v_, &queue_v_});
  }
  return detail::bidirectional_search(ctx, TopologyRows{&ctx.graph()}, u, v,
                                      SearchBall<HashMarks>{&hash_parent_u_, &queue_u_},
                                      SearchBall<HashMarks>{&hash_parent_v_, &queue_v_});
}

}  // namespace faultroute
