#pragma once

#include "core/router.hpp"
#include "graph/bfs.hpp"

namespace faultroute {

/// Pure greedy descent (the "natural approach" remarked on in Section 3.2):
/// from the current vertex, probe only edges that strictly reduce the
/// fault-free distance to the target, in order of resulting distance, and
/// move along the first open one. *Incomplete*: fails as soon as it gets
/// stuck, so its success probability is itself a measurement (the remark
/// predicts it works "most of the way" but dies near the target).
class GreedyDescentRouter : public Router {
 public:
  std::optional<Path> route(ProbeContext& ctx, VertexId u, VertexId v) override;

  [[nodiscard]] std::string name() const override { return "greedy"; }

  [[nodiscard]] bool uses_distance_metric() const override { return true; }
};

/// Best-first (greedy with backtracking): a complete local router that
/// always expands the reached vertex closest to the target in the fault-free
/// metric, probing its edges in order of resulting distance. On a fault-free
/// graph it degenerates to greedy routing along shortest paths; under faults
/// it backtracks instead of failing.
class BestFirstRouter : public Router {
 public:
  std::optional<Path> route(ProbeContext& ctx, VertexId u, VertexId v) override;

  [[nodiscard]] std::string name() const override { return "best-first"; }

  [[nodiscard]] bool uses_distance_metric() const override { return true; }

 private:
  // Search state pooled across a worker's messages (dense on the flat
  // adjacency path, hash on the implicit path; bit-identical results — see
  // graph/bfs.hpp).
  DenseMarks dense_parent_;
  DenseMarks dense_expanded_;
  HashMarks hash_parent_;
  HashMarks hash_expanded_;
};

}  // namespace faultroute
