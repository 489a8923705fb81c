#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>

#include "core/path.hpp"
#include "core/probe_context.hpp"
#include "graph/epoch_stamps.hpp"
#include "graph/flat_adjacency.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/splitmix64.hpp"

namespace faultroute {

/// The test-only seam EpochStamps befriends: jumps the epoch counter to
/// just before the 2^32 wrap, which begin() alone would need ~4 billion
/// calls to reach.
struct EpochStampsTestPeer {
  static void set_epoch(EpochStamps& stamps, std::uint32_t epoch) { stamps.epoch_ = epoch; }
};

namespace {

// ------------------------------------------------------------- ProbeContext

TEST(ProbeContext, CountsDistinctAndTotalSeparately) {
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 1);
  ProbeContext ctx(g, s, 0, RoutingMode::kLocal);
  EXPECT_EQ(ctx.distinct_probes(), 0u);
  ctx.probe(0, 0);
  ctx.probe(0, 0);
  ctx.probe(0, 1);
  EXPECT_EQ(ctx.distinct_probes(), 2u);
  EXPECT_EQ(ctx.total_probes(), 3u);
}

TEST(ProbeContext, MemoisesAnswers) {
  const Hypercube g(5);
  const HashEdgeSampler s(0.5, 42);
  ProbeContext ctx(g, s, 0, RoutingMode::kOracle);
  for (int i = 0; i < 5; ++i) {
    const bool first = ctx.probe(0, i);
    EXPECT_EQ(ctx.probe(0, i), first);
    EXPECT_EQ(first, s.is_open(g.edge_key(0, i)));
  }
}

TEST(ProbeContext, ProbeAgreesAcrossEndpoints) {
  // Probing the same physical edge from either endpoint is one distinct edge.
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 9);
  ProbeContext ctx(g, s, 0, RoutingMode::kOracle);
  ctx.probe(0, 0);               // edge 0 - 1
  ctx.probe(1, 0);               // same edge from the other side
  EXPECT_EQ(ctx.distinct_probes(), 1u);
}

TEST(ProbeContext, LocalModeTracksReachedSet) {
  const Hypercube g(3);
  ExplicitEdgeSampler s(false);
  s.set(g.edge_key(0, 0), true);  // 0 - 1 open
  ProbeContext ctx(g, s, 0, RoutingMode::kLocal);
  EXPECT_TRUE(ctx.is_reached(0));
  EXPECT_FALSE(ctx.is_reached(1));
  EXPECT_TRUE(ctx.probe(0, 0));
  EXPECT_TRUE(ctx.is_reached(1));
  EXPECT_FALSE(ctx.probe(0, 1));   // closed edge
  EXPECT_FALSE(ctx.is_reached(2));
}

TEST(ProbeContext, LocalModeRejectsNonIncidentProbes) {
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 1);
  ProbeContext ctx(g, s, 0, RoutingMode::kLocal);
  // Vertex 12 is far from the source 0 with nothing probed yet.
  EXPECT_THROW(ctx.probe(12, 0), LocalityViolation);
  // Edges at the source are fine, and extend the reach.
  EXPECT_TRUE(ctx.probe(0, 2));  // reaches 4
  EXPECT_NO_THROW(ctx.probe(4, 0));
}

TEST(ProbeContext, LocalProbeFromFarEndpointTowardsReachedIsAllowed) {
  // Definition 1 allows probing any edge with an endpoint on the reached
  // set, regardless of which endpoint names the edge.
  const Hypercube g(3);
  const HashEdgeSampler s(1.0, 1);
  ProbeContext ctx(g, s, 0, RoutingMode::kLocal);
  // Edge 1-0 probed from vertex 1 (unreached) is incident to reached 0.
  EXPECT_NO_THROW(ctx.probe(1, 0));
  EXPECT_TRUE(ctx.is_reached(1));
}

TEST(ProbeContext, ClosedProbesDoNotExtendReach) {
  const Hypercube g(3);
  ExplicitEdgeSampler s(false);
  ProbeContext ctx(g, s, 0, RoutingMode::kLocal);
  EXPECT_FALSE(ctx.probe(0, 0));
  EXPECT_FALSE(ctx.is_reached(1));
  EXPECT_THROW(ctx.probe(1, 1), LocalityViolation);  // 1 is still unreached
}

TEST(ProbeContext, OracleModeAllowsAnyProbe) {
  const Hypercube g(4);
  const HashEdgeSampler s(0.5, 3);
  ProbeContext ctx(g, s, 0, RoutingMode::kOracle);
  EXPECT_NO_THROW(ctx.probe(9, 1));
  EXPECT_NO_THROW(ctx.probe(15, 3));
  EXPECT_TRUE(ctx.is_reached(9));  // trivially true in oracle mode
}

TEST(ProbeContext, BudgetCountsDistinctEdgesOnly) {
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 1);
  ProbeContext ctx(g, s, 0, RoutingMode::kOracle, /*budget=*/2);
  ctx.probe(0, 0);
  ctx.probe(0, 0);  // memoised, free
  ctx.probe(0, 1);
  EXPECT_EQ(ctx.remaining_budget(), 0u);
  EXPECT_THROW(ctx.probe(0, 2), ProbeBudgetExceeded);
  // Memoised probes still succeed after exhaustion.
  EXPECT_NO_THROW(ctx.probe(0, 0));
}

TEST(ProbeContext, ProbeBetweenFindsTheEdge) {
  const Mesh g(2, 4);
  const HashEdgeSampler s(1.0, 1);
  ProbeContext ctx(g, s, 0, RoutingMode::kLocal);
  EXPECT_TRUE(ctx.probe_between(0, 1));
  EXPECT_THROW(ctx.probe_between(0, 5), std::invalid_argument);  // diagonal
}

// ---------------------------------------- both backends, parameterised
//
// The dense (arena-backed) and hash backends must be observably identical.
// Each test below runs once per backend and once per routing mode where the
// mode matters; `arena_for` hands out nullptr (hash) or a live arena (dense).

class ProbeContextBackends : public ::testing::TestWithParam<bool> {
 protected:
  ProbeArena* arena_for() { return GetParam() ? &arena_ : nullptr; }
  /// The dense backend indexes the flat snapshot's edge ids; the hash
  /// backend runs over implicit adjacency.
  const FlatAdjacency* flat_for(const Topology& g) const {
    return GetParam() ? &g.flat_adjacency() : nullptr;
  }

 private:
  ProbeArena arena_;
};

INSTANTIATE_TEST_SUITE_P(HashAndDense, ProbeContextBackends, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "dense" : "hash";
                         });

TEST_P(ProbeContextBackends, BudgetZeroThrowsOnTheVeryFirstFreshProbe) {
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 1);
  for (const RoutingMode mode : {RoutingMode::kLocal, RoutingMode::kOracle}) {
    ProbeContext ctx(g, s, 0, mode, /*budget=*/0, arena_for(), flat_for(g));
    EXPECT_EQ(ctx.remaining_budget(), 0u);
    EXPECT_THROW(ctx.probe(0, 0), ProbeBudgetExceeded);
    // The rejected probe still counted as a call, but discovered nothing.
    EXPECT_EQ(ctx.total_probes(), 1u);
    EXPECT_EQ(ctx.distinct_probes(), 0u);
  }
}

TEST_P(ProbeContextBackends, ExactlyAtBudgetSucceedsAndOneMoreThrows) {
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 1);
  for (const RoutingMode mode : {RoutingMode::kLocal, RoutingMode::kOracle}) {
    ProbeContext ctx(g, s, 0, mode, /*budget=*/4, arena_for(), flat_for(g));
    for (int i = 0; i < 4; ++i) EXPECT_NO_THROW(ctx.probe(0, i));  // spends it all
    EXPECT_EQ(ctx.distinct_probes(), 4u);
    EXPECT_EQ(ctx.remaining_budget(), 0u);
    // Memoised re-probes stay free after exhaustion; a fresh edge throws.
    EXPECT_NO_THROW(ctx.probe(0, 3));
    EXPECT_THROW(ctx.probe(1, 1), ProbeBudgetExceeded);
    EXPECT_EQ(ctx.distinct_probes(), 4u);
  }
}

TEST_P(ProbeContextBackends, RemainingBudgetIsConsistentWithTheThrowCondition) {
  // Invariant under any probe sequence: a probe throws ProbeBudgetExceeded
  // iff it is fresh and remaining_budget() == 0, and remaining_budget() ==
  // budget - distinct_probes() throughout.
  const Hypercube g(4);
  const HashEdgeSampler s(0.7, 5);
  constexpr std::uint64_t kBudget = 6;
  ProbeContext ctx(g, s, 0, RoutingMode::kOracle, kBudget, arena_for(), flat_for(g));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (int i = 0; i < g.degree(v); ++i) {
      const std::uint64_t before = ctx.distinct_probes();
      ASSERT_EQ(ctx.remaining_budget(), kBudget - before);
      try {
        ctx.probe(v, i);
        EXPECT_LE(ctx.distinct_probes(), kBudget);
      } catch (const ProbeBudgetExceeded&) {
        EXPECT_EQ(before, kBudget);  // threw exactly at exhaustion
        EXPECT_EQ(ctx.remaining_budget(), 0u);
        return;  // invariant held all the way to exhaustion
      }
    }
  }
  FAIL() << "budget was never exhausted; the sweep should overrun 6 edges";
}

TEST_P(ProbeContextBackends, UnboundedBudgetReportsNullopt) {
  const Hypercube g(3);
  const HashEdgeSampler s(1.0, 1);
  ProbeContext ctx(g, s, 0, RoutingMode::kOracle, std::nullopt, arena_for(), flat_for(g));
  EXPECT_EQ(ctx.remaining_budget(), std::nullopt);
  ctx.probe(0, 0);
  EXPECT_EQ(ctx.remaining_budget(), std::nullopt);
}

// ----------------------------------------------------- dense backend proper

TEST(EpochStamps, WrapLeavesNoPreWrapSlotLive) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  EpochStamps stamps;
  stamps.begin(4);  // epoch 1
  stamps.stamp(0);
  EpochStampsTestPeer::set_epoch(stamps, kMax - 1);
  stamps.begin(4);  // the last epoch before the wrap
  stamps.stamp(1);
  EXPECT_TRUE(stamps.live(1));
  EXPECT_FALSE(stamps.live(0));
  stamps.begin(4);  // wraps
  // Slot 0 carries the epoch the counter restarts at, slot 1 the last
  // pre-wrap epoch, slots 2-3 the never-stamped zero: none may read live.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_FALSE(stamps.live(i)) << "slot " << i;
  stamps.stamp(2);
  EXPECT_TRUE(stamps.live(2));
  stamps.begin(4);
  EXPECT_FALSE(stamps.live(2));
}

TEST(ProbeArena, EpochBumpIsolatesMessagesWithoutLeakingState) {
  const Hypercube g(4);
  const HashEdgeSampler s(1.0, 9);
  ProbeArena arena;
  {
    ProbeContext first(g, s, 0, RoutingMode::kLocal, std::nullopt, &arena,
                       &g.flat_adjacency());
    first.probe(0, 0);
    first.probe(0, 1);
    EXPECT_EQ(first.distinct_probes(), 2u);
    EXPECT_TRUE(first.is_reached(1));
  }
  // Same arena, next message: the previous memo and reached set must be
  // invisible — the same edges count as distinct again, and vertex 1 is no
  // longer reached (only the new source is).
  ProbeContext second(g, s, 2, RoutingMode::kLocal, std::nullopt, &arena,
                      &g.flat_adjacency());
  EXPECT_EQ(second.distinct_probes(), 0u);
  EXPECT_FALSE(second.is_reached(1));
  EXPECT_TRUE(second.is_reached(2));
  EXPECT_THROW(second.probe(0, 0), LocalityViolation);  // 0-1 not incident to {2}
  second.probe(2, 0);
  EXPECT_EQ(second.distinct_probes(), 1u);
}

TEST(ProbeArena, SurvivesTopologySwitches) {
  // Scenario sweeps reuse one worker arena across cells with different
  // topologies; the arena must resize and reset cleanly.
  const Hypercube cube(4);
  const Mesh mesh(2, 8);
  const HashEdgeSampler s(1.0, 3);
  ProbeArena arena;
  {
    ProbeContext ctx(cube, s, 0, RoutingMode::kLocal, std::nullopt, &arena,
                     &cube.flat_adjacency());
    ctx.probe(0, 0);
    EXPECT_EQ(ctx.distinct_probes(), 1u);
  }
  {
    ProbeContext ctx(mesh, s, 0, RoutingMode::kLocal, std::nullopt, &arena,
                     &mesh.flat_adjacency());
    EXPECT_EQ(ctx.distinct_probes(), 0u);
    EXPECT_TRUE(ctx.probe_between(0, 1));
    EXPECT_TRUE(ctx.is_reached(1));
  }
  ProbeContext back(cube, s, 1, RoutingMode::kOracle, std::nullopt, &arena,
                    &cube.flat_adjacency());
  back.probe(1, 0);
  EXPECT_EQ(back.distinct_probes(), 1u);
}

TEST(ProbeContext, DenseAndHashBackendsAgreeOnEveryObservable) {
  // Drive both backends through an identical mixed probe sequence (repeats,
  // both endpoints of the same edge, reach growth) and compare every
  // observable after every step.
  const Hypercube g(5);
  const HashEdgeSampler s(0.6, 31);
  ProbeArena arena;
  ProbeContext hash(g, s, 0, RoutingMode::kLocal);
  ProbeContext dense(g, s, 0, RoutingMode::kLocal, std::nullopt, &arena,
                     &g.flat_adjacency());
  std::uint64_t frontier = 0;  // walk outward along whatever opens
  for (int round = 0; round < 40; ++round) {
    const VertexId v = frontier;
    for (int i = 0; i < g.degree(v); ++i) {
      bool hash_open = false;
      bool dense_open = false;
      bool hash_threw = false;
      bool dense_threw = false;
      try {
        hash_open = hash.probe(v, i);
      } catch (const LocalityViolation&) {
        hash_threw = true;
      }
      try {
        dense_open = dense.probe(v, i);
      } catch (const LocalityViolation&) {
        dense_threw = true;
      }
      ASSERT_EQ(hash_threw, dense_threw) << "round " << round << " slot " << i;
      ASSERT_EQ(hash_open, dense_open) << "round " << round << " slot " << i;
      ASSERT_EQ(hash.distinct_probes(), dense.distinct_probes());
      ASSERT_EQ(hash.total_probes(), dense.total_probes());
      if (!hash_threw && hash_open) frontier = g.neighbor(v, i);
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(hash.is_reached(v), dense.is_reached(v)) << "vertex " << v;
  }
}

// ------------------------------------------------------------------- Path

TEST(Path, ValidOpenPathAccepts) {
  const Hypercube g(3);
  const HashEdgeSampler s(1.0, 1);
  EXPECT_TRUE(is_valid_open_path(g, s, {0, 1, 3, 7}, 0, 7));
  EXPECT_TRUE(is_valid_open_path(g, s, {5}, 5, 5));
}

TEST(Path, RejectsWrongEndpointsOrGaps) {
  const Hypercube g(3);
  const HashEdgeSampler s(1.0, 1);
  EXPECT_FALSE(is_valid_open_path(g, s, {}, 0, 0));
  EXPECT_FALSE(is_valid_open_path(g, s, {0, 1}, 0, 7));
  EXPECT_FALSE(is_valid_open_path(g, s, {0, 3}, 0, 3));  // not adjacent
}

TEST(Path, RejectsClosedEdges) {
  const Hypercube g(3);
  ExplicitEdgeSampler s(true);
  s.set(g.edge_key(1, edge_index_of(g, 1, 3)), false);
  EXPECT_FALSE(is_valid_open_path(g, s, {0, 1, 3}, 0, 3));
  EXPECT_TRUE(is_valid_open_path(g, s, {0, 2, 3}, 0, 3));
}

TEST(Path, SimplifyRemovesLoops) {
  EXPECT_EQ(simplify_walk({1, 2, 3, 2, 4}), (Path{1, 2, 4}));
  EXPECT_EQ(simplify_walk({1, 2, 1, 2, 3}), (Path{1, 2, 3}));
  EXPECT_EQ(simplify_walk({7}), (Path{7}));
  EXPECT_EQ(simplify_walk({}), (Path{}));
  EXPECT_EQ(simplify_walk({1, 2, 3}), (Path{1, 2, 3}));
}

TEST(Path, SimplifyKeepsEndpointsAndAdjacency) {
  // A messy walk on the hypercube simplifies to a valid simple path.
  const Hypercube g(3);
  const Path walk = {0, 1, 0, 2, 6, 2, 3, 7};
  const Path simple = simplify_walk(walk);
  EXPECT_EQ(simple.front(), 0u);
  EXPECT_EQ(simple.back(), 7u);
  for (std::size_t i = 0; i + 1 < simple.size(); ++i) {
    EXPECT_GE(edge_index_of(g, simple[i], simple[i + 1]), 0);
  }
  // No repeats.
  Path sorted = simple;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(Path, SimplifyMatchesEagerDeletionOnRandomWalks) {
  // simplify_walk deletes the positions of cut vertices lazily; hold it to
  // the eager form (erase every cut vertex's position) on walks over a few
  // vertices, where loops, nested loops and revisits of cut vertices abound.
  const auto eager = [](const Path& walk) {
    Path out;
    std::map<VertexId, std::size_t> position;
    for (const VertexId v : walk) {
      const auto it = position.find(v);
      if (it != position.end()) {
        for (std::size_t i = it->second + 1; i < out.size(); ++i) position.erase(out[i]);
        out.resize(it->second + 1);
      } else {
        position.emplace(v, out.size());
        out.push_back(v);
      }
    }
    return out;
  };
  SplitMix64 rng(41);
  for (int trial = 0; trial < 2000; ++trial) {
    Path walk(rng() % 40);
    const std::uint64_t vertices = 2 + rng() % 10;
    for (VertexId& v : walk) v = rng() % vertices;
    ASSERT_EQ(simplify_walk(walk), eager(walk)) << "trial " << trial;
  }
}

TEST(Path, LengthCounts) {
  EXPECT_EQ(path_length({}), 0u);
  EXPECT_EQ(path_length({3}), 0u);
  EXPECT_EQ(path_length({3, 4, 5}), 2u);
}

}  // namespace
}  // namespace faultroute
