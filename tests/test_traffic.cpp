#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/routers/flood_router.hpp"
#include "core/routers/greedy_router.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "helpers/fresh_probe_reference.hpp"
#include "obs/counter_registry.hpp"
#include "percolation/edge_sampler.hpp"
#include "sim/registry.hpp"
#include "traffic/shared_probe_cache.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace faultroute {
namespace {

RouterFactory best_first_factory() {
  return [] { return std::make_unique<BestFirstRouter>(); };
}

// --------------------------------------------------------------- workloads

TEST(Workload, ParseRoundTripsEveryName) {
  for (const auto& name : workload_names()) {
    EXPECT_EQ(workload_name(parse_workload(name)), name);
  }
  EXPECT_THROW((void)parse_workload("nope"), std::invalid_argument);
}

TEST(Workload, GeneratorsProduceRequestedCountWithDistinctEndpoints) {
  const Hypercube g(6);
  for (const auto& name : workload_names()) {
    WorkloadConfig config;
    config.kind = parse_workload(name);
    config.messages = 200;
    const auto messages = generate_workload(g, config);
    ASSERT_EQ(messages.size(), 200u) << name;
    for (std::size_t i = 0; i < messages.size(); ++i) {
      EXPECT_EQ(messages[i].id, i) << name;
      EXPECT_NE(messages[i].source, messages[i].target) << name;
      EXPECT_LT(messages[i].source, g.num_vertices()) << name;
      EXPECT_LT(messages[i].target, g.num_vertices()) << name;
    }
  }
}

TEST(Workload, PermutationRoundIsAPermutation) {
  // With messages <= n every source appears at most once and so does every
  // target (one round of a fixed-point-free restriction of a permutation).
  const Hypercube g(6);
  WorkloadConfig config;
  config.kind = WorkloadKind::kPermutation;
  config.messages = 48;
  const auto messages = generate_workload(g, config);
  std::set<VertexId> sources;
  std::set<VertexId> targets;
  for (const auto& msg : messages) {
    EXPECT_TRUE(sources.insert(msg.source).second);
    EXPECT_TRUE(targets.insert(msg.target).second);
  }
}

TEST(Workload, HotspotTargetsOneVertex) {
  const Hypercube g(5);
  WorkloadConfig config;
  config.kind = WorkloadKind::kHotspot;
  config.messages = 100;
  config.hotspot_target = 7;
  for (const auto& msg : generate_workload(g, config)) {
    EXPECT_EQ(msg.target, 7u);
    EXPECT_NE(msg.source, 7u);
  }
}

TEST(Workload, BisectionCrossesTheCut) {
  const Hypercube g(5);
  WorkloadConfig config;
  config.kind = WorkloadKind::kBisection;
  config.messages = 100;
  const std::uint64_t half = g.num_vertices() / 2;
  for (const auto& msg : generate_workload(g, config)) {
    EXPECT_LT(msg.source, half);
    EXPECT_GE(msg.target, half);
  }
}

TEST(Workload, PoissonArrivalsAreNondecreasingAndSpread) {
  const Hypercube g(6);
  WorkloadConfig config;
  config.kind = WorkloadKind::kPoisson;
  config.messages = 300;
  config.arrival_rate = 2.0;
  const auto messages = generate_workload(g, config);
  for (std::size_t i = 1; i < messages.size(); ++i) {
    EXPECT_GE(messages[i].inject_time, messages[i - 1].inject_time);
  }
  // Mean inter-arrival 1/rate: the last arrival lands near messages/rate.
  EXPECT_GT(messages.back().inject_time, 300u / 2 / 2);
  EXPECT_LT(messages.back().inject_time, 2 * 300u / 2);
}

TEST(Workload, RejectsMessageCountsThatWouldAliasIds) {
  // Message ids are 32-bit; the old behaviour silently truncated the index,
  // aliasing every message past 2^32. The guard runs before any allocation,
  // so requesting the absurd count is cheap. Both generator families (the
  // permutation round loop and the independent-draw loop) are covered.
  const Hypercube g(6);
  for (const auto& name : workload_names()) {
    WorkloadConfig config;
    config.kind = parse_workload(name);
    config.messages = (std::uint64_t{1} << 32);  // UINT32_MAX + 1
    config.arrival_rate = 1.0;
    EXPECT_THROW((void)generate_workload(g, config), std::invalid_argument) << name;
  }
  WorkloadConfig max_ok;
  max_ok.messages = 0;  // the boundary itself is fine (0 and small counts run)
  EXPECT_TRUE(generate_workload(g, max_ok).empty());
}

TEST(Workload, PoissonRejectsRatesWithNoRepresentableSchedule) {
  // A rate of 1e-300 puts the first inject time near 1e300, far past
  // UINT64_MAX, where the double-to-integer cast is undefined; a non-finite
  // rate has no schedule at all. Both must throw, naming the rate.
  const Hypercube g(4);
  WorkloadConfig config;
  config.kind = WorkloadKind::kPoisson;
  config.messages = 4;
  config.arrival_rate = 1e-300;
  try {
    (void)generate_workload(g, config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("1e-300"), std::string::npos) << e.what();
  }
  for (const double rate : {std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(), 0.0, -1.0}) {
    config.arrival_rate = rate;
    EXPECT_THROW((void)generate_workload(g, config), std::invalid_argument) << rate;
  }
  // Small but representable rates still generate.
  config.arrival_rate = 1e-9;
  EXPECT_EQ(generate_workload(g, config).size(), 4U);
}

TEST(Workload, DeterministicInSeed) {
  const Hypercube g(6);
  WorkloadConfig config;
  config.kind = WorkloadKind::kRandomPairs;
  config.messages = 64;
  config.seed = 9;
  const auto a = generate_workload(g, config);
  const auto b = generate_workload(g, config);
  config.seed = 10;
  const auto c = generate_workload(g, config);
  ASSERT_EQ(a.size(), b.size());
  bool all_equal_to_c = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].target, b[i].target);
    all_equal_to_c = all_equal_to_c && a[i].source == c[i].source && a[i].target == c[i].target;
  }
  EXPECT_FALSE(all_equal_to_c);
}

// ------------------------------------------------------- SharedProbeCache

TEST(SharedProbeCache, TransparentOverBaseSampler) {
  // Key-addressed (topology only) and edge-id-addressed (over the flat
  // snapshot) caches alike.
  const Hypercube g(6);
  const HashEdgeSampler base(0.5, 77);
  const SharedProbeCache keyed(base, g);
  const SharedProbeCache indexed(base, g.flat_adjacency());
  for (const SharedProbeCache* cache : {&keyed, &indexed}) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (int i = 0; i < g.degree(v); ++i) {
        const EdgeKey key = g.edge_key(v, i);
        EXPECT_EQ(cache->is_open(key), base.is_open(key));
        EXPECT_EQ(cache->is_open(key), base.is_open(key));  // cached path
      }
    }
    EXPECT_EQ(cache->unique_edges(), g.num_edges());
    EXPECT_EQ(cache->survival_probability(), base.survival_probability());
  }
}

TEST(SharedProbeCache, ConsistentUnderConcurrentProbing) {
  const Hypercube g(8);
  const HashEdgeSampler base(0.5, 3);
  const SharedProbeCache cache(base, g);
  std::vector<std::thread> pool;
  std::atomic<bool> mismatch{false};
  for (int w = 0; w < 8; ++w) {
    pool.emplace_back([&] {
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        for (int i = 0; i < g.degree(v); ++i) {
          const EdgeKey key = g.edge_key(v, i);
          if (cache.is_open(key) != base.is_open(key)) mismatch = true;
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_FALSE(mismatch);
  EXPECT_EQ(cache.unique_edges(), g.num_edges());
}

// ----------------------------------------------------------- traffic engine

std::uint64_t global_counter(const std::string& name) {
  for (const auto& entry : obs::global_registry().snapshot()) {
    if (entry.name == name) return entry.value;
  }
  return 0;
}

TEST(TrafficEngine, HugeHypercubePaysPerProbeNotPerVertex) {
  // 2^33 vertices, 2.8·10^11 directed channels: far past the kAuto budget
  // and past 32-bit channel ids. The default adjacency must route, cache and
  // deliver from what the batch touches, building no whole-graph structure.
  const auto g = sim::make_topology("hypercube:33");
  const HashEdgeSampler env(0.9, 5);
  WorkloadConfig workload = sim::make_workload("random-pairs");
  workload.messages = 8;
  workload.seed = 3;
  const auto messages = generate_workload(*g, workload);
  const auto factory = [&]() { return sim::make_router("landmark", *g); };
  const std::uint64_t indexed = global_counter("graph.channel_index.builds");
  const std::uint64_t built = global_counter("graph.flat_adjacency.materializations");
  const TrafficResult r = run_traffic(*g, env, factory, messages, TrafficConfig{});
  EXPECT_EQ(global_counter("graph.channel_index.builds"), indexed);
  EXPECT_EQ(global_counter("graph.flat_adjacency.materializations"), built);
  EXPECT_EQ(r.channels, 2 * g->num_edges());
  EXPECT_EQ(r.channels, 283467841536ULL);
  EXPECT_EQ(r.routed, 8U);
  EXPECT_EQ(r.delivered, 8U);
  EXPECT_GT(r.unique_edges_probed, 0U);
  EXPECT_EQ(r.cache_hits + r.cache_misses, r.total_distinct_probes);
}

const Hypercube kBatchGraph(8);
const HashEdgeSampler kBatchEnv(0.6, 11);

std::vector<TrafficMessage> hypercube_batch_messages() {
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kRandomPairs;
  workload.messages = 400;
  workload.seed = 5;
  return generate_workload(kBatchGraph, workload);
}

TrafficResult run_hypercube_batch(unsigned threads) {
  TrafficConfig config;
  config.threads = threads;
  return run_traffic(kBatchGraph, kBatchEnv, best_first_factory(), hypercube_batch_messages(),
                     config);
}

TEST(TrafficEngine, MessageConservation) {
  const TrafficResult r = run_hypercube_batch(4);
  EXPECT_EQ(r.messages, 400u);
  // Every message is accounted for exactly once.
  EXPECT_EQ(r.routed + r.failed_routing + r.censored + r.invalid_paths, r.messages);
  EXPECT_EQ(r.delivered + r.stranded, r.routed);
  EXPECT_EQ(r.stranded, 0u);  // capacity >= 1 and no step cap: everything drains
  EXPECT_EQ(r.invalid_paths, 0u);
  EXPECT_GT(r.delivered, 0u);
}

TEST(TrafficEngine, QueueConservationEdgeLoadsMatchDeliveredHops) {
  const TrafficResult r = run_hypercube_batch(2);
  // Total transmissions recorded on edges == total hops of delivered paths.
  std::uint64_t delivered_hops = 0;
  for (const MessageOutcome& out : r.outcomes) {
    if (out.delivered) delivered_hops += out.path_edges;
  }
  const double load_sum = r.mean_edge_load * static_cast<double>(r.edges_used);
  EXPECT_NEAR(load_sum, static_cast<double>(delivered_hops), 1e-6);
  EXPECT_GE(r.max_edge_load, static_cast<std::uint64_t>(r.mean_edge_load));
}

TEST(TrafficEngine, DeterministicAcrossThreadCounts) {
  const TrafficResult a = run_hypercube_batch(1);
  for (const unsigned threads : {2u, 8u}) {
    const TrafficResult b = run_hypercube_batch(threads);
    EXPECT_EQ(a.routed, b.routed);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.total_distinct_probes, b.total_distinct_probes);
    EXPECT_EQ(a.unique_edges_probed, b.unique_edges_probed);
    EXPECT_EQ(a.max_edge_load, b.max_edge_load);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.mean_queueing_delay, b.mean_queueing_delay);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      EXPECT_EQ(a.outcomes[i].distinct_probes, b.outcomes[i].distinct_probes);
      EXPECT_EQ(a.outcomes[i].path_edges, b.outcomes[i].path_edges);
      EXPECT_EQ(a.outcomes[i].finish_time, b.outcomes[i].finish_time);
      EXPECT_EQ(a.outcomes[i].delivered, b.outcomes[i].delivered);
    }
  }
}

TEST(TrafficEngine, SharedCacheAmortisesDiscoveryWithoutChangingResults) {
  const TrafficResult with = run_hypercube_batch(4);
  // The cache is semantically transparent: each message costs what it costs
  // routed alone over the raw sampler...
  testing::expect_matches_fresh_probe_contexts(kBatchGraph, kBatchEnv, best_first_factory(),
                                               hypercube_batch_messages(), TrafficConfig{},
                                               with, "hypercube:8 best-first");
  // ...and the batch re-uses discovered edges many times over.
  EXPECT_GT(with.unique_edges_probed, 0u);
  EXPECT_LT(with.unique_edges_probed, with.total_distinct_probes);
  EXPECT_GT(with.probe_amortization(), 1.0);
  // A batch can never discover more edges than the graph has.
  EXPECT_LE(with.unique_edges_probed, kBatchGraph.num_edges());
}

TEST(TrafficEngine, HotspotSaturatesTheTargetEdgeOnALine) {
  // Path graph 0-1-...-15, everything routed to vertex 0: every message must
  // cross the final edge {1,0}, which serialises deliveries at 1 msg/step.
  const Mesh g(1, 16, /*wrap=*/false);
  const HashEdgeSampler env(1.0, 1);
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kHotspot;
  workload.messages = 64;
  workload.hotspot_target = 0;
  TrafficConfig config;
  const TrafficResult r =
      run_traffic(g, env, best_first_factory(), generate_workload(g, workload), config);
  EXPECT_EQ(r.delivered, 64u);
  EXPECT_EQ(r.max_edge_load, 64u);  // the {1,0} edge carries every message
  // Capacity 1 on the last hop: deliveries leave one per step, so the
  // makespan is at least the message count, and queueing dominates delay.
  EXPECT_GE(r.makespan, 64u);
  EXPECT_GT(r.mean_queueing_delay, 1.0);
}

TEST(TrafficEngine, ExtraCapacityRelievesTheHotspot) {
  const Mesh g(1, 16, /*wrap=*/false);
  const HashEdgeSampler env(1.0, 1);
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kHotspot;
  workload.messages = 64;
  TrafficConfig narrow;
  narrow.edge_capacity = 1;
  TrafficConfig wide;
  wide.edge_capacity = 4;
  const auto messages = generate_workload(g, workload);
  const TrafficResult a = run_traffic(g, env, best_first_factory(), messages, narrow);
  const TrafficResult b = run_traffic(g, env, best_first_factory(), messages, wide);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_LT(b.makespan, a.makespan);
  EXPECT_LT(b.mean_queueing_delay, a.mean_queueing_delay);
}

TEST(TrafficEngine, UncongestedMessageHasZeroQueueingDelay) {
  const Hypercube g(6);
  const HashEdgeSampler env(1.0, 1);
  const std::vector<TrafficMessage> one{{0, 0, 63, 0}};
  const TrafficResult r = run_traffic(g, env, best_first_factory(), one, {});
  ASSERT_EQ(r.delivered, 1u);
  EXPECT_EQ(r.outcomes[0].queueing_delay, 0u);
  EXPECT_EQ(r.outcomes[0].finish_time, r.outcomes[0].path_edges);
  EXPECT_EQ(r.makespan, r.outcomes[0].path_edges);
}

TEST(TrafficEngine, PoissonInjectionTimesAreRespected) {
  const Hypercube g(6);
  const HashEdgeSampler env(0.8, 4);
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kPoisson;
  workload.messages = 100;
  workload.arrival_rate = 0.5;
  const TrafficResult r =
      run_traffic(g, env, best_first_factory(), generate_workload(g, workload), {});
  for (const MessageOutcome& out : r.outcomes) {
    if (!out.delivered) continue;
    EXPECT_GE(out.finish_time, out.message.inject_time + out.path_edges);
  }
}

TEST(TrafficEngine, MaxStepsStrandsInFlightMessages) {
  const Mesh g(1, 16, /*wrap=*/false);
  const HashEdgeSampler env(1.0, 1);
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kHotspot;
  workload.messages = 64;
  TrafficConfig config;
  config.max_steps = 5;  // far below the ~64-step drain time of the hotspot
  const TrafficResult r =
      run_traffic(g, env, best_first_factory(), generate_workload(g, workload), config);
  EXPECT_GT(r.stranded, 0u);
  EXPECT_EQ(r.delivered + r.stranded, r.routed);
}

TEST(TrafficEngine, ProbeBudgetCensorsMessages) {
  const Hypercube g(8);
  const HashEdgeSampler env(0.6, 11);
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kRandomPairs;
  workload.messages = 100;
  TrafficConfig config;
  config.probe_budget = 3;  // too small to route across an 8-cube
  const auto factory = [] { return std::make_unique<FloodRouter>(); };
  const TrafficResult r =
      run_traffic(g, env, factory, generate_workload(g, workload), config);
  EXPECT_GT(r.censored, 0u);
  EXPECT_EQ(r.routed + r.failed_routing + r.censored + r.invalid_paths, r.messages);
}

/// A misbehaving router that fabricates the fault-free shortest path without
/// probing — its paths cross closed edges under percolation.
class BlindShortestPathRouter final : public Router {
 public:
  std::optional<Path> route(ProbeContext& ctx, VertexId u, VertexId v) override {
    return ctx.graph().shortest_path(u, v);
  }
  [[nodiscard]] std::string name() const override { return "blind"; }
  [[nodiscard]] RoutingMode required_mode() const override { return RoutingMode::kOracle; }
};

TEST(TrafficEngine, InvalidPathsAreExcludedFromRoutedAndDelivery) {
  const Hypercube g(6);
  const HashEdgeSampler env(0.3, 5);  // sparse: most fabricated paths hit a closed edge
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kRandomPairs;
  workload.messages = 50;
  const auto factory = [] { return std::make_unique<BlindShortestPathRouter>(); };
  const TrafficResult r =
      run_traffic(g, env, factory, generate_workload(g, workload), {});
  EXPECT_GT(r.invalid_paths, 0u);
  // The exact partition holds even when verification rejects paths...
  EXPECT_EQ(r.routed + r.failed_routing + r.censored + r.invalid_paths, r.messages);
  // ...and rejected messages never enter the delivery simulation.
  EXPECT_EQ(r.delivered + r.stranded, r.routed);
}

TEST(TrafficEngine, InvalidPathOutcomesReportZeroPathEdges) {
  // Regression: invalidation reset out.routed but left out.path_edges at the
  // rejected path's hop count, so consumers summing path_edges over
  // non-delivered outcomes double-counted work that never happened.
  const Hypercube g(6);
  const HashEdgeSampler env(0.3, 5);
  WorkloadConfig workload;
  workload.kind = WorkloadKind::kRandomPairs;
  workload.messages = 50;
  const auto factory = [] { return std::make_unique<BlindShortestPathRouter>(); };
  const TrafficResult r =
      run_traffic(g, env, factory, generate_workload(g, workload), {});
  ASSERT_GT(r.invalid_paths, 0u);
  std::uint64_t invalidated = 0;
  for (const MessageOutcome& out : r.outcomes) {
    if (out.routed || out.censored) continue;
    // Both failed-routing and invalidated messages must report zero hops.
    EXPECT_EQ(out.path_edges, 0u);
    ++invalidated;
  }
  EXPECT_EQ(invalidated, r.invalid_paths + r.failed_routing);
}

TEST(TrafficEngine, TwoEdgeContentionHandComputed) {
  // Path graph 0-1-2, two messages 0 -> 2 injected at t=0, capacity 1.
  //   t=0: both queue on channel 0->1; id 0 transmits (edge {0,1}).
  //   t=1: id 0 queues on 1->2 and transmits; id 1 transmits on 0->1.
  //   t=2: id 0 arrives at 2 (delivered, finish 2); id 1 transmits on 1->2.
  //   t=3: id 1 delivered.
  const Mesh g(1, 3, /*wrap=*/false);
  const HashEdgeSampler env(1.0, 1);
  const std::vector<TrafficMessage> two{{0, 0, 2, 0}, {1, 0, 2, 0}};
  const TrafficResult r = run_traffic(g, env, best_first_factory(), two, {});
  ASSERT_EQ(r.delivered, 2u);
  EXPECT_EQ(r.outcomes[0].finish_time, 2u);
  EXPECT_EQ(r.outcomes[1].finish_time, 3u);
  EXPECT_EQ(r.makespan, 3u);
  EXPECT_EQ(r.outcomes[0].queueing_delay, 0u);  // never waited
  EXPECT_EQ(r.outcomes[1].queueing_delay, 1u);  // one step behind id 0 on each edge
  EXPECT_EQ(r.max_queueing_delay, 1u);
  // Both messages crossed both edges; directions pool per undirected edge.
  EXPECT_EQ(r.edges_used, 2u);
  EXPECT_EQ(r.max_edge_load, 2u);
  EXPECT_DOUBLE_EQ(r.mean_edge_load, 2.0);
  EXPECT_EQ(r.transmissions, 4u);
  EXPECT_EQ(r.sim_steps, 4u);             // t = 0, 1, 2, 3
  EXPECT_EQ(r.admission_events, 6u);      // 2 injections + 4 hop arrivals
  EXPECT_EQ(r.peak_active_channels, 2u);  // 0->1 and 1->2 busy at t=1
  EXPECT_EQ(r.channels, 4u);              // 2 undirected edges, both directions
}

TEST(TrafficEngine, DeliveryInvariantsOnAPoissonBatch) {
  const TrafficResult r = [] {
    const Hypercube g(7);
    const HashEdgeSampler env(0.55, 21);
    WorkloadConfig workload;
    workload.kind = WorkloadKind::kPoisson;
    workload.messages = 500;
    workload.arrival_rate = 4.0;
    workload.seed = 3;
    return run_traffic(g, env, best_first_factory(), generate_workload(g, workload), {});
  }();
  // Conservation partition: every message accounted for exactly once, and
  // with no step cap everything routed eventually drains.
  EXPECT_EQ(r.routed + r.failed_routing + r.censored + r.invalid_paths, r.messages);
  EXPECT_EQ(r.delivered + r.stranded, r.routed);
  EXPECT_EQ(r.stranded, 0u);
  ASSERT_GT(r.delivered, 0u);
  // queueing_delay can never underflow: finish >= inject + hops for every
  // delivered message, and the delay is exactly the difference (an underflow
  // would wrap to ~2^64 and blow the reconstruction below).
  std::uint64_t delivered_hops = 0;
  for (const MessageOutcome& out : r.outcomes) {
    if (!out.delivered) continue;
    ASSERT_GE(out.finish_time, out.message.inject_time + out.path_edges);
    EXPECT_EQ(out.queueing_delay,
              out.finish_time - out.message.inject_time - out.path_edges);
    EXPECT_LE(out.queueing_delay, out.finish_time);
    delivered_hops += out.path_edges;
  }
  // Event-counter identities: every delivered hop is one transmission, every
  // admission either re-queues a hop or delivers a message.
  EXPECT_EQ(r.transmissions, delivered_hops);
  EXPECT_EQ(r.admission_events, r.transmissions + r.delivered);
}

TEST(TrafficEngine, MemoryStateIsBoundedByChannelsPlusMessagesNotTime) {
  // Same message count, ~100x different simulated horizon: the engine's
  // per-run state (channel index, per-channel FIFO heads, per-message slots)
  // must not grow with simulated time. The counters expose exactly those
  // sizes; under the old container engine the queue table grew with every
  // distinct channel ever touched and the timeline with every distinct
  // admission time.
  const Hypercube g(7);
  const HashEdgeSampler env(0.7, 9);
  const auto run_at_rate = [&](double rate) {
    WorkloadConfig workload;
    workload.kind = WorkloadKind::kPoisson;
    workload.messages = 300;
    workload.arrival_rate = rate;
    workload.seed = 12;
    return run_traffic(g, env, best_first_factory(), generate_workload(g, workload), {});
  };
  const TrafficResult dense = run_at_rate(8.0);
  const TrafficResult sparse = run_at_rate(0.05);  // long horizon, idle gaps
  ASSERT_GT(sparse.makespan, 10 * dense.makespan);
  // Identical state footprint regardless of horizon...
  EXPECT_EQ(dense.channels, sparse.channels);
  EXPECT_EQ(dense.channels, 2 * g.num_edges());
  EXPECT_LE(dense.peak_active_channels, dense.channels);
  EXPECT_LE(sparse.peak_active_channels, sparse.channels);
  // ...and the event loop never executes more steps than it has events for
  // (idle gaps are skipped, so steps are bounded by admissions, not by the
  // simulated clock).
  EXPECT_LE(sparse.sim_steps, sparse.admission_events);
  EXPECT_GT(sparse.makespan, sparse.sim_steps);  // horizon >> work on sparse runs
}

TEST(TrafficEngine, RejectsZeroCapacity) {
  const Hypercube g(4);
  const HashEdgeSampler env(1.0, 1);
  TrafficConfig config;
  config.edge_capacity = 0;
  EXPECT_THROW(run_traffic(g, env, best_first_factory(), {}, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace faultroute
