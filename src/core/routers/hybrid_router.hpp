#pragma once

#include <vector>

#include "core/router.hpp"
#include "graph/bfs.hpp"

namespace faultroute {

/// The Section 3.2 remark, made concrete: "a greedy approach at the early
/// stages of the routing would reduce the exponent in the complexity".
///
/// Phase 1 (greedy): walk towards the target probing only improving edges,
/// as long as progress is easy. Phase 2 (repair): when greedy gets stuck at
/// distance <= `handoff` from the target (or mid-way), fall back to the
/// landmark/BFS algorithm *from the closest vertex reached so far*.
///
/// Complete: phase 2 alone is complete, and phase 1 only ever extends the
/// reached set. The ablation experiment (`bench_paper ablations`) compares
/// its complexity exponent with pure landmark routing on the hypercube.
class HybridGreedyRouter : public Router {
 public:
  std::optional<Path> route(ProbeContext& ctx, VertexId u, VertexId v) override;

  [[nodiscard]] std::string name() const override { return "hybrid"; }

  [[nodiscard]] bool uses_distance_metric() const override { return true; }

 private:
  // Repair-phase search state, pooled across a worker's messages (dense on
  // the flat adjacency path, hash on the implicit path; bit-identical
  // results — see graph/bfs.hpp).
  DenseMarks dense_pos_;
  DenseMarks dense_parent_;
  HashMarks hash_pos_;
  HashMarks hash_parent_;
  std::vector<VertexId> queue_;
};

}  // namespace faultroute
