#pragma once

#include <optional>
#include <string>

#include "core/path.hpp"
#include "core/probe_context.hpp"

namespace faultroute {

/// A routing algorithm (Definition 1 of the paper): given probe access to a
/// percolated graph, find an open path between two vertices.
///
/// Contract:
///  * `route` returns a path iff it found one; the returned path must be a
///    valid open walk from u to v (verified by the experiment harness);
///  * returning nullopt means the router determined (or gave up determining)
///    that no path exists — a *complete* router returns nullopt only when u
///    and v are in different open clusters;
///  * `required_mode()` declares whether the router obeys locality; local
///    routers are run under enforcement and must never trip it.
class Router {
 public:
  virtual ~Router() = default;

  virtual std::optional<Path> route(ProbeContext& ctx, VertexId u, VertexId v) = 0;

  /// The router's registry name (sim::router_names()), so a printed label
  /// can be passed back to --router.
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual RoutingMode required_mode() const { return RoutingMode::kLocal; }

  /// True iff the router steers by the fault-free metric (graph.distance /
  /// ProbeContext::target_distances). The traffic engine uses this to
  /// prewarm the cached DistanceOracle with the batch's targets before
  /// routing starts — a pure precomputation hint; routing results never
  /// depend on it.
  [[nodiscard]] virtual bool uses_distance_metric() const { return false; }
};

}  // namespace faultroute
