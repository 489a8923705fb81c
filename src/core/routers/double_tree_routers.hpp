#pragma once

#include "core/router.hpp"
#include "graph/double_tree.hpp"

namespace faultroute {

/// Local routing between the two roots of TT_n (Theorem 7's setting).
///
/// Depth-first search of the open subtree of tree 1 hanging from root x;
/// every time a leaf is reached, climb its unique tree-2 branch towards
/// root y, giving up at the first closed edge. A leaf's climb succeeds with
/// probability p^n, which is why any local strategy — this one included —
/// pays ~ p^{-n} probes. Complete for root-to-root routing.
class DoubleTreeLocalRouter : public Router {
 public:
  explicit DoubleTreeLocalRouter(const DoubleBinaryTree& tree) : tree_(tree) {}

  /// Requires u == tree.root1() and v == tree.root2() (or vice versa).
  std::optional<Path> route(ProbeContext& ctx, VertexId u, VertexId v) override;

  [[nodiscard]] std::string name() const override { return "double-tree-local"; }

 private:
  const DoubleBinaryTree& tree_;
};

/// The oracle router of Theorem 9: explore from root x depth-first, but
/// probe every tree-1 edge *together with its mirror edge in tree 2*, and
/// descend only along branches open in both trees. Equivalent to depth-first
/// search of a binary Galton-Watson tree with edge probability p^2, which is
/// supercritical for p > 1/sqrt(2); dead branches have finite expected size,
/// so the expected complexity is O(n).
class DoubleTreePairedOracleRouter : public Router {
 public:
  explicit DoubleTreePairedOracleRouter(const DoubleBinaryTree& tree) : tree_(tree) {}

  /// Requires u == tree.root1() and v == tree.root2() (or vice versa).
  std::optional<Path> route(ProbeContext& ctx, VertexId u, VertexId v) override;

  [[nodiscard]] std::string name() const override { return "double-tree-oracle"; }
  [[nodiscard]] RoutingMode required_mode() const override { return RoutingMode::kOracle; }

 private:
  const DoubleBinaryTree& tree_;
};

}  // namespace faultroute
