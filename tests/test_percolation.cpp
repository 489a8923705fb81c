#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "analysis/stats.hpp"
#include "graph/complete.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "percolation/chemical_distance.hpp"
#include "percolation/cluster_analysis.hpp"
#include "percolation/edge_sampler.hpp"
#include "percolation/threshold.hpp"
#include "percolation/union_find.hpp"
#include "random/rng.hpp"

namespace faultroute {
namespace {

// -------------------------------------------------------------- EdgeSampler

TEST(HashEdgeSampler, RejectsBadP) {
  EXPECT_THROW(HashEdgeSampler(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(HashEdgeSampler(1.1, 1), std::invalid_argument);
  EXPECT_NO_THROW(HashEdgeSampler(0.0, 1));
  EXPECT_NO_THROW(HashEdgeSampler(1.0, 1));
}

TEST(HashEdgeSampler, ExtremesAreDeterministic) {
  const HashEdgeSampler closed(0.0, 7);
  const HashEdgeSampler open(1.0, 7);
  for (EdgeKey k = 0; k < 1000; ++k) {
    EXPECT_FALSE(closed.is_open(k));
    EXPECT_TRUE(open.is_open(k));
  }
}

TEST(HashEdgeSampler, ConsistentOnReprobe) {
  const HashEdgeSampler s(0.5, 99);
  for (EdgeKey k = 0; k < 1000; ++k) EXPECT_EQ(s.is_open(k), s.is_open(k));
}

TEST(HashEdgeSampler, SeedChangesTheWorld) {
  const HashEdgeSampler a(0.5, 1);
  const HashEdgeSampler b(0.5, 2);
  int differences = 0;
  for (EdgeKey k = 0; k < 1000; ++k) {
    if (a.is_open(k) != b.is_open(k)) ++differences;
  }
  EXPECT_GT(differences, 300);  // ~500 expected
}

TEST(HashEdgeSampler, EmpiricalRateMatchesP) {
  for (const double p : {0.1, 0.3, 0.5, 0.9}) {
    const HashEdgeSampler s(p, 1234);
    std::uint64_t open = 0;
    const std::uint64_t n = 200000;
    for (EdgeKey k = 0; k < n; ++k) open += s.is_open(k) ? 1 : 0;
    const Interval ci = wilson_interval(open, n, /*z=*/4.0);
    EXPECT_TRUE(ci.contains(p)) << "p=" << p << " rate=" << static_cast<double>(open) / n;
  }
}

TEST(HashEdgeSampler, AdjacentKeysAreUncorrelated) {
  // Pairs (k, k+1) should hit all four open/closed combinations ~ equally.
  const HashEdgeSampler s(0.5, 5);
  int counts[4] = {0, 0, 0, 0};
  const int n = 40000;
  for (EdgeKey k = 0; k < n; ++k) {
    counts[(s.is_open(2 * k) ? 2 : 0) + (s.is_open(2 * k + 1) ? 1 : 0)]++;
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.25, 0.02);
  }
}

TEST(ExplicitEdgeSampler, PinsIndividualEdges) {
  ExplicitEdgeSampler s(/*default_open=*/true);
  s.set(5, false);
  EXPECT_TRUE(s.is_open(4));
  EXPECT_FALSE(s.is_open(5));
  s.set(5, true);
  EXPECT_TRUE(s.is_open(5));
}

// ---------------------------------------------------------------- UnionFind

TEST(UnionFind, StartsFullyDisjoint) {
  UnionFind dsu(10);
  EXPECT_EQ(dsu.num_components(), 10u);
  EXPECT_FALSE(dsu.same(0, 1));
  EXPECT_EQ(dsu.size_of(3), 1u);
}

TEST(UnionFind, UniteMergesAndCounts) {
  UnionFind dsu(6);
  EXPECT_TRUE(dsu.unite(0, 1));
  EXPECT_TRUE(dsu.unite(1, 2));
  EXPECT_FALSE(dsu.unite(0, 2));  // already together
  EXPECT_EQ(dsu.num_components(), 4u);
  EXPECT_EQ(dsu.size_of(1), 3u);
  EXPECT_TRUE(dsu.same(0, 2));
  EXPECT_FALSE(dsu.same(0, 5));
}

TEST(UnionFind, RandomisedInvariantSweep) {
  // Property: after random unions, component count + total merges == n.
  const std::uint64_t n = 500;
  UnionFind dsu(n);
  Rng rng(77);
  std::uint64_t merges = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = uniform_below(rng, n);
    const std::uint64_t b = uniform_below(rng, n);
    if (a != b && dsu.unite(a, b)) ++merges;
  }
  EXPECT_EQ(dsu.num_components() + merges, n);
  // Sizes sum to n over distinct roots.
  std::uint64_t total = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    if (dsu.find(v) == v) total += dsu.size_of(v);
  }
  EXPECT_EQ(total, n);
}

// --------------------------------------------------------- ClusterAnalysis

TEST(ClusterAnalysis, FullyOpenGraphIsOneComponent) {
  const Hypercube g(6);
  const HashEdgeSampler s(1.0, 1);
  const auto summary = analyze_components(g, s);
  EXPECT_EQ(summary.num_components, 1u);
  EXPECT_EQ(summary.largest, g.num_vertices());
  EXPECT_EQ(summary.num_open_edges, g.num_edges());
  EXPECT_DOUBLE_EQ(summary.largest_fraction(), 1.0);
}

TEST(ClusterAnalysis, FullyClosedGraphIsAllSingletons) {
  const Mesh g(2, 8);
  const HashEdgeSampler s(0.0, 1);
  const auto summary = analyze_components(g, s);
  EXPECT_EQ(summary.num_components, g.num_vertices());
  EXPECT_EQ(summary.largest, 1u);
  EXPECT_EQ(summary.num_open_edges, 0u);
}

TEST(ClusterAnalysis, HandCraftedWorld) {
  // Path 0-1-2 open, rest of a 2x3 mesh closed.
  const Mesh g(1, 6);
  ExplicitEdgeSampler s(false);
  s.set(g.edge_key(0, edge_index_of(g, 0, 1)), true);
  s.set(g.edge_key(1, edge_index_of(g, 1, 2)), true);
  ClusterDecomposition decomp(g, s);
  EXPECT_EQ(decomp.summary().largest, 3u);
  EXPECT_EQ(decomp.summary().second_largest, 1u);
  EXPECT_TRUE(decomp.same_cluster(0, 2));
  EXPECT_FALSE(decomp.same_cluster(0, 3));
  EXPECT_TRUE(decomp.in_largest_cluster(1));
  EXPECT_FALSE(decomp.in_largest_cluster(5));
}

TEST(ClusterAnalysis, GiantComponentAppearsAboveThreshold) {
  // Supercritical 2D mesh (p = 0.7 >> 0.5) has a giant cluster; subcritical
  // (p = 0.3) does not. 48x48 is comfortably past finite-size wobble.
  const Mesh g(2, 48);
  const auto super = analyze_components(g, HashEdgeSampler(0.7, 21));
  const auto sub = analyze_components(g, HashEdgeSampler(0.3, 21));
  EXPECT_GT(super.largest_fraction(), 0.5);
  EXPECT_LT(sub.largest_fraction(), 0.1);
}

TEST(ClusterAnalysis, MonotoneInP) {
  const Hypercube g(9);
  double prev = -1.0;
  for (const double p : {0.1, 0.3, 0.5, 0.8, 1.0}) {
    const auto summary = analyze_components(g, HashEdgeSampler(p, 4));
    EXPECT_GE(summary.largest_fraction() + 0.05, prev);  // small slack, same seed
    prev = summary.largest_fraction();
  }
}

TEST(OpenClusterOf, MatchesDecomposition) {
  const Mesh g(2, 10);
  const HashEdgeSampler s(0.55, 17);
  ClusterDecomposition decomp(g, s);
  const auto cluster = open_cluster_of(g, s, 0);
  EXPECT_EQ(cluster.size(), decomp.cluster_size(0));
  for (const VertexId v : cluster) EXPECT_TRUE(decomp.same_cluster(0, v));
  // The implicit backend (hash marks over the virtual interface) against the
  // same ground truth; the default runs dense marks over CSR rows.
  const auto implicit = open_cluster_of(g, s, 0, 0, AdjacencyMode::kImplicit);
  EXPECT_EQ(implicit.size(), decomp.cluster_size(0));
  for (const VertexId v : implicit) EXPECT_TRUE(decomp.same_cluster(0, v));
}

TEST(OpenClusterOf, HonorsCap) {
  const Mesh g(2, 20);
  const HashEdgeSampler s(1.0, 1);
  const auto cluster = open_cluster_of(g, s, 0, /*max_vertices=*/50);
  EXPECT_EQ(cluster.size(), 50u);
}

TEST(OpenConnected, AgreesWithGroundTruth) {
  const Mesh g(2, 12);
  const HashEdgeSampler s(0.55, 3);
  ClusterDecomposition decomp(g, s);
  for (VertexId v = 1; v < g.num_vertices(); v += 13) {
    const auto result = open_connected(g, s, 0, v);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(*result, decomp.same_cluster(0, v));
    const auto implicit = open_connected(g, s, 0, v, 0, AdjacencyMode::kImplicit);
    ASSERT_TRUE(implicit.has_value());
    EXPECT_EQ(*implicit, decomp.same_cluster(0, v));
  }
}

TEST(OpenConnected, CapReturnsUnknown) {
  const Mesh g(2, 30);
  const HashEdgeSampler s(1.0, 1);
  // u and v far apart, tiny cap: inconclusive.
  EXPECT_FALSE(open_connected(g, s, 0, g.num_vertices() - 1, 10).has_value());
}

TEST(MaterializeOpenSubgraph, KeepsExactlyOpenEdges) {
  const Hypercube g(5);
  const HashEdgeSampler s(0.5, 123);
  const ExplicitGraph sub = materialize_open_subgraph(g, s);
  EXPECT_EQ(sub.num_vertices(), g.num_vertices());
  std::uint64_t open_count = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int i = 0; i < g.degree(v); ++i) {
      if (g.neighbor(v, i) > v && s.is_open(g.edge_key(v, i))) ++open_count;
    }
  }
  EXPECT_EQ(sub.num_edges(), open_count);
  // Connectivity must agree.
  ClusterDecomposition reference(g, s);
  const HashEdgeSampler all_open(1.0, 0);
  ClusterDecomposition materialised(sub, all_open);
  EXPECT_EQ(reference.summary().largest, materialised.summary().largest);
}

// ------------------------------------------------------- ChemicalDistance

TEST(ChemicalDistance, EqualsGraphDistanceWhenFullyOpen) {
  const Mesh g(2, 9);
  const HashEdgeSampler s(1.0, 1);
  EXPECT_EQ(chemical_distance(g, s, 0, g.num_vertices() - 1),
            g.distance(0, g.num_vertices() - 1));
}

TEST(ChemicalDistance, DisconnectedIsNullopt) {
  const Mesh g(1, 5);
  ExplicitEdgeSampler s(false);
  EXPECT_EQ(chemical_distance(g, s, 0, 4), std::nullopt);
}

TEST(ChemicalDistance, DetourIsCounted) {
  // 3x3 mesh: block the straight corridor, leave a detour.
  const Mesh g(2, 3);
  ExplicitEdgeSampler s(true);
  const VertexId mid_left = g.vertex_at({0, 1});
  const VertexId mid_mid = g.vertex_at({1, 1});
  s.set(g.edge_key(mid_left, edge_index_of(g, mid_left, mid_mid)), false);
  const VertexId a = g.vertex_at({0, 1});
  const VertexId b = g.vertex_at({2, 1});
  EXPECT_EQ(g.distance(a, b), 2u);
  const auto open_dist = chemical_distance(g, s, a, b);
  ASSERT_TRUE(open_dist.has_value());
  EXPECT_EQ(*open_dist, 4u);  // around the blocked edge
  EXPECT_EQ(chemical_distance(g, s, a, b, 0, AdjacencyMode::kImplicit), 4u);
}

TEST(ChemicalPath, ReturnsAnOpenShortestPath) {
  const Mesh g(2, 8);
  const HashEdgeSampler s(0.8, 31);
  const VertexId a = 0;
  const VertexId b = g.num_vertices() - 1;
  const auto result = chemical_path(g, s, a, b);
  if (!result.distance.has_value()) GTEST_SKIP() << "disconnected at this seed";
  ASSERT_EQ(result.path.size(), *result.distance + 1);
  EXPECT_EQ(result.path.front(), a);
  EXPECT_EQ(result.path.back(), b);
  for (std::size_t i = 0; i + 1 < result.path.size(); ++i) {
    const int idx = edge_index_of(g, result.path[i], result.path[i + 1]);
    ASSERT_GE(idx, 0);
    EXPECT_TRUE(s.is_open(g.edge_key(result.path[i], idx)));
  }
}

TEST(ChemicalDistance, NeverBeatsGraphDistance) {
  const Mesh g(2, 10);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const HashEdgeSampler s(0.7, seed);
    const auto d = chemical_distance(g, s, 0, 99);
    if (d.has_value()) {
      EXPECT_GE(*d, g.distance(0, 99));
    }
  }
}

// ----------------------------------------------------------------- Threshold

TEST(Threshold, RecoversMeshCriticalPoint) {
  // 2D bond percolation: p_c = 1/2 exactly. A 40x40 torus estimate should
  // land within a few percent.
  const auto order = [](double p, std::uint64_t seed) {
    const Mesh g(2, 40, /*wrap=*/true);
    return analyze_components(g, HashEdgeSampler(p, seed)).largest_fraction();
  };
  ThresholdConfig config;
  config.target_fraction = 0.25;
  config.trials_per_point = 6;
  config.tolerance = 0.005;
  config.seed = 99;
  const double pc = estimate_threshold(order, 0.2, 0.8, config);
  EXPECT_NEAR(pc, 0.5, 0.06);
}

TEST(Threshold, ValidatesArguments) {
  const auto order = [](double, std::uint64_t) { return 0.0; };
  EXPECT_THROW((void)estimate_threshold(order, 0.5, 0.5, {}), std::invalid_argument);
  ThresholdConfig bad;
  bad.trials_per_point = 0;
  EXPECT_THROW((void)estimate_threshold(order, 0.1, 0.9, bad), std::invalid_argument);
  // A tolerance <= 0 never ends the bisection; a NaN tolerance or a target
  // outside (0, 1] silently returns a bracket end. Each error names its field.
  const auto rejects = [&](const ThresholdConfig& config, const std::string& field) {
    try {
      (void)estimate_threshold(order, 0.1, 0.9, config);
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const double tolerance : {-1.0, 0.0, kNan, std::numeric_limits<double>::infinity()}) {
    ThresholdConfig config;
    config.tolerance = tolerance;
    rejects(config, "tolerance");
  }
  for (const double target : {2.0, -1.0, 0.0, kNan}) {
    ThresholdConfig config;
    config.target_fraction = target;
    rejects(config, "target_fraction");
  }
}

TEST(Threshold, DegenerateOrderParameterGoesToBounds) {
  ThresholdConfig config;
  config.tolerance = 0.01;
  const auto always_super = [](double, std::uint64_t) { return 1.0; };
  EXPECT_LT(estimate_threshold(always_super, 0.0, 1.0, config), 0.02);
  const auto never_super = [](double, std::uint64_t) { return 0.0; };
  EXPECT_GT(estimate_threshold(never_super, 0.0, 1.0, config), 0.98);
}

}  // namespace
}  // namespace faultroute
