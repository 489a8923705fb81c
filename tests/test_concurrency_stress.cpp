// Concurrency stress suite — the workload the CI `tsan` job exists for.
//
// Every lock-free or lazily-initialised shared structure in the repo gets
// hammered here from many threads at once, with a start barrier so the
// threads actually collide: SharedProbeCache CAS publication and batched
// discovery flushes,
// CounterRegistry per-thread slabs (with a
// concurrent snapshotter), PhaseProfiler scopes from worker threads,
// DistanceOracle grow-only column memo, the lazy Topology::channel_index /
// flat_adjacency / FlatAdjacency::distance_oracle caches, and the full
// threaded traffic engine across both frontier modes.
//
// The assertions are the structures' documented determinism contracts
// (exact counter identities, value purity, one-instance lazy init). Run
// under ThreadSanitizer (-DFAULTROUTE_TSAN=ON) these tests are additionally
// a race detector over every interleaving TSan happens to observe; the
// suite is deliberately allocation-light inside the hammer loops so TSan's
// happens-before graph stays dense.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "graph/channel_index.hpp"
#include "graph/de_bruijn.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/flat_adjacency.hpp"
#include "graph/hypercube.hpp"
#include "obs/counter_registry.hpp"
#include "obs/phase_profiler.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/rng.hpp"
#include "sim/registry.hpp"
#include "traffic/shared_probe_cache.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace faultroute {
namespace {

/// Spawns `threads` workers, releases them through a spin barrier so they
/// enter `body(worker_index)` as simultaneously as the scheduler allows,
/// and joins. Rethrows nothing: bodies assert with gtest on their own.
void hammer(unsigned threads, const std::function<void(unsigned)>& body) {
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) {
      }  // spin: wake all workers within one scheduling quantum
      body(t);
    });
  }
  while (ready.load() < threads) {
  }
  go.store(true);
  for (std::thread& worker : pool) worker.join();
}

constexpr unsigned kThreads = 8;

// ---------------------------------------------------------- probe caches

TEST(ConcurrencyStress, SharedProbeCacheCasPublicationIsExactUnderContention) {
  const Hypercube graph(9);  // 512 vertices, 2304 edges
  const HashEdgeSampler base(0.5, 42);
  const FlatAdjacency& flat = graph.flat_adjacency();
  const SharedProbeCache cache(base, flat);
  const SharedProbeCache keyed(base, graph);
  const std::uint32_t edges = flat.num_edge_ids();

  // Reference answers straight from the base sampler.
  std::vector<std::pair<std::uint32_t, EdgeKey>> id_key(edges);
  std::vector<char> expected(edges);
  for (std::uint64_t pos = 0; pos < flat.num_channels(); ++pos) {
    id_key[flat.edge_id_at(pos)] = {flat.edge_id_at(pos), flat.edge_key_at(pos)};
  }
  for (std::uint32_t e = 0; e < edges; ++e) {
    expected[e] = base.is_open(id_key[e].second) ? 1 : 0;
  }

  // Every worker probes every edge several times in a worker-dependent
  // order, so first-touch races happen on most edges — through the
  // edge-id-addressed CAS path and the key-addressed striped record alike.
  constexpr int kRounds = 4;
  std::atomic<std::uint64_t> wrong{0};
  hammer(kThreads, [&](unsigned worker) {
    for (int round = 0; round < kRounds; ++round) {
      for (std::uint32_t i = 0; i < edges; ++i) {
        const std::uint32_t e =
            (worker % 2 == 0) ? i : (edges - 1 - i);  // opposing sweeps collide
        const bool open = cache.is_open_indexed(id_key[e].first, id_key[e].second);
        if (open != (expected[e] == 1)) wrong.fetch_add(1);
        if (keyed.is_open(id_key[e].second) != (expected[e] == 1)) wrong.fetch_add(1);
      }
    }
  });

  EXPECT_EQ(wrong.load(), 0u) << "a racing probe observed a non-pure answer";
  // A miss is counted only by the publication winner, so each cache counts
  // every edge exactly once however the first probes raced.
  EXPECT_EQ(cache.unique_edges(), edges);
  EXPECT_EQ(keyed.unique_edges(), edges);

  // Batched flushes, the implicit routing leg's path: every worker records
  // an overlapping window of edge keys, repeatedly and in odd-sized batches,
  // into one key-addressed cache. A key is counted only by the flush that
  // inserts it, so misses must equal the size of the windows' union.
  const SharedProbeCache batched(base, graph);
  const std::uint32_t step = edges / (2 * kThreads);
  const std::uint32_t window = edges / 4;  // >= step: the windows overlap
  constexpr std::size_t kBatch = 97;
  hammer(kThreads, [&](unsigned worker) {
    std::vector<EdgeKey> batch;
    batch.reserve(kBatch);
    for (int round = 0; round < kRounds; ++round) {
      for (std::uint32_t i = 0; i < window; ++i) {
        const std::uint32_t offset = (worker % 2 == 0) ? i : (window - 1 - i);
        batch.push_back(id_key[worker * step + offset].second);
        if (batch.size() == kBatch) {
          batched.record_discoveries(batch);
          batch.clear();
        }
      }
    }
    batched.record_discoveries(batch);
  });
  EXPECT_EQ(batched.unique_edges(), (kThreads - 1) * step + window);
}

// ------------------------------------------------------- counter registry

TEST(ConcurrencyStress, CounterRegistrySlabMergeIsExactAfterJoin) {
  obs::CounterRegistry registry;
  const auto sum_id = registry.id("stress.sum");
  const auto max_id = registry.id("stress.max", obs::MergeKind::kMax);

  constexpr std::uint64_t kIncrements = 20000;
  // A concurrent snapshotter thread: totals mid-run are unspecified (slabs
  // are merged while owners still write) but must be safe; under TSan this
  // is the reader/writer pair the relaxed atomics exist for.
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      (void)registry.snapshot();
      (void)registry.value(sum_id);
    }
  });

  hammer(kThreads, [&](unsigned worker) {
    for (std::uint64_t i = 1; i <= kIncrements; ++i) {
      registry.add(sum_id, 1);
      registry.record_max(max_id, worker * kIncrements + i);
    }
  });
  stop.store(true);
  snapshotter.join();

  // After the workers join, the merge is exact by contract.
  EXPECT_EQ(registry.value(sum_id), kThreads * kIncrements);
  EXPECT_EQ(registry.value(max_id), (kThreads - 1) * kIncrements + kIncrements);
}

TEST(ConcurrencyStress, GlobalRegistryFindOrRegisterRacesResolveToOneCounter) {
  // Racing global_count calls on the same fresh name must converge on a
  // single counter id and lose no increments.
  obs::CounterRegistry& registry = obs::global_registry();
  const std::string name = "stress.global.fan_in";
  constexpr std::uint64_t kIncrements = 5000;
  const std::uint64_t before = registry.value(registry.id(name));
  hammer(kThreads, [&](unsigned) {
    for (std::uint64_t i = 0; i < kIncrements; ++i) obs::global_count(name);
  });
  EXPECT_EQ(registry.value(registry.id(name)) - before, kThreads * kIncrements);
}

// --------------------------------------------------------- phase profiler

TEST(ConcurrencyStress, PhaseProfilerRecordsEveryScopeFromEveryWorker) {
  obs::PhaseProfiler profiler;
  constexpr int kScopes = 500;
  hammer(kThreads, [&](unsigned worker) {
    profiler.label_current_thread("worker");
    for (int i = 0; i < kScopes; ++i) {
      const obs::PhaseProfiler::Scope outer(&profiler, "outer");
      const obs::PhaseProfiler::Scope inner(&profiler, "inner");
      (void)worker;
    }
  });
  std::uint64_t outer = 0;
  std::uint64_t inner = 0;
  for (const auto& stat : profiler.aggregate()) {
    if (stat.path == "outer") outer = stat.count;
    if (stat.path == "outer/inner") inner = stat.count;
  }
  EXPECT_EQ(outer, static_cast<std::uint64_t>(kThreads) * kScopes);
  EXPECT_EQ(inner, static_cast<std::uint64_t>(kThreads) * kScopes);
  EXPECT_EQ(profiler.tracks().size(), kThreads);
}

// --------------------------------------------------------- distance oracle

TEST(ConcurrencyStress, DistanceOracleGrowOnlyMemoIsPureUnderConcurrentGrowth) {
  const DeBruijn graph(8);  // 256 vertices, no closed-form metric
  const FlatAdjacency flat(graph);
  const DistanceOracle oracle(flat);

  // Workers grow the memo with overlapping target blocks while others read
  // columns and ALT bounds for targets that may be mid-build.
  const std::uint64_t n = graph.num_vertices();
  std::atomic<std::uint64_t> wrong{0};
  hammer(kThreads, [&](unsigned worker) {
    std::vector<VertexId> targets;
    for (VertexId t = worker % 4; t < n; t += 4) targets.push_back(t);
    oracle.ensure_targets(targets);
    Rng rng(worker + 1);
    for (int i = 0; i < 2000; ++i) {
      const auto u = static_cast<VertexId>(uniform_below(rng, n));
      const auto t = static_cast<VertexId>(uniform_below(rng, n));
      const std::uint32_t* column = oracle.distances_to(t);
      const std::uint64_t exact = graph.distance(u, t);
      if (column != nullptr && column[u] != exact) wrong.fetch_add(1);
      if (oracle.lower_bound(u, t) > exact) wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(oracle.num_columns(), n);  // all four residue classes merged
}

// ------------------------------------------------------- lazy topology caches

TEST(ConcurrencyStress, LazySnapshotCachesInitializeOnceUnderFirstTouchRaces) {
  for (int round = 0; round < 8; ++round) {
    const Hypercube graph(10);
    std::vector<const ChannelIndex*> index_seen(kThreads);
    std::vector<const FlatAdjacency*> flat_seen(kThreads);
    std::vector<const DistanceOracle*> oracle_seen(kThreads);
    hammer(kThreads, [&](unsigned worker) {
      // All three lazy layers first-touched concurrently, in two orders so
      // the flat_adjacency() path also races channel_index() init.
      if (worker % 2 == 0) {
        index_seen[worker] = &graph.channel_index();
        flat_seen[worker] = &graph.flat_adjacency();
      } else {
        flat_seen[worker] = &graph.flat_adjacency();
        index_seen[worker] = &graph.channel_index();
      }
      oracle_seen[worker] = &flat_seen[worker]->distance_oracle();
    });
    for (unsigned t = 1; t < kThreads; ++t) {
      EXPECT_EQ(index_seen[t], index_seen[0]);
      EXPECT_EQ(flat_seen[t], flat_seen[0]);
      EXPECT_EQ(oracle_seen[t], oracle_seen[0]);
    }
  }
}

// -------------------------------------------- whole-engine threaded routing

TEST(ConcurrencyStress, ThreadedTrafficIsBitIdenticalAcrossFrontierModes) {
  // The capstone: the full engine at threads=4 in both frontier modes must
  // reproduce the single-threaded run bit-for-bit. Under TSan this routes real batches through
  // ProbeArena pooling, the lock-free cache, the batch executor's shared
  // block memo, and the counter slabs at once.
  const auto graph = sim::make_topology("de_bruijn:8");
  const HashEdgeSampler env(0.55, derive_seed(2005, 3));
  WorkloadConfig workload = sim::make_workload("random-pairs");
  workload.messages = 384;
  workload.seed = derive_seed(2005, 4);
  const auto messages = generate_workload(*graph, workload);
  const auto factory = [&]() { return sim::make_router("best-first", *graph); };

  const auto run_with = [&](unsigned threads, FrontierMode frontier) {
    TrafficConfig config;
    config.threads = threads;
    config.frontier = frontier;
    return run_traffic(*graph, env, factory, messages, config);
  };

  const TrafficResult baseline = run_with(1, FrontierMode::kBatch);
  for (const FrontierMode frontier : {FrontierMode::kBatch, FrontierMode::kPerMessage}) {
    const TrafficResult threaded = run_with(4, frontier);
    EXPECT_EQ(threaded.routed, baseline.routed);
    EXPECT_EQ(threaded.delivered, baseline.delivered);
    EXPECT_EQ(threaded.makespan, baseline.makespan);
    EXPECT_EQ(threaded.total_distinct_probes, baseline.total_distinct_probes);
    EXPECT_EQ(threaded.unique_edges_probed, baseline.unique_edges_probed);
    ASSERT_EQ(threaded.outcomes.size(), baseline.outcomes.size());
    for (std::size_t i = 0; i < baseline.outcomes.size(); ++i) {
      EXPECT_EQ(threaded.outcomes[i].delivered, baseline.outcomes[i].delivered);
      EXPECT_EQ(threaded.outcomes[i].finish_time, baseline.outcomes[i].finish_time);
      EXPECT_EQ(threaded.outcomes[i].path_edges, baseline.outcomes[i].path_edges);
    }
  }
}

}  // namespace
}  // namespace faultroute
