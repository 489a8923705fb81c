#include "traffic/routing_phase.hpp"

#include <atomic>
#include <memory>
#include <optional>

#include "core/parallel.hpp"
#include "core/routers/bidirectional_router.hpp"
#include "core/routers/flood_router.hpp"
#include "graph/distance_oracle.hpp"
#include "obs/run_metrics.hpp"
#include "traffic/frontier_search.hpp"
#include "traffic/shared_probe_cache.hpp"

namespace faultroute::detail {

namespace {

/// Keys a worker buffers before it flushes them into the implicit leg's
/// shared cache.
constexpr std::size_t kDiscoveryFlushKeys = 4096;

/// A routing worker's pooled probe state: one ProbeArena, re-epoched per
/// message, so steady-state routing allocates nothing on either leg. On the
/// implicit leg with a shared cache the worker probes the raw sampler and
/// its arena logs the keys of its memo misses; they go into the cache's
/// discovery record in batches — one stripe lock per stripe per flush, none
/// per probe — whenever kDiscoveryFlushKeys have piled up, and once more
/// when the worker drains (this state dies with the body closure, on the
/// worker thread, before parallel_index_loop returns).
class WorkerProbeState {
 public:
  explicit WorkerProbeState(const SharedProbeCache* discoveries)
      : arena(discoveries != nullptr), discoveries_(discoveries) {}
  WorkerProbeState(const WorkerProbeState&) = delete;
  WorkerProbeState& operator=(const WorkerProbeState&) = delete;
  ~WorkerProbeState() { flush(); }

  /// Flushes the discovery buffer once it holds a batch.
  void after_message() {
    if (arena.discovered().size() >= kDiscoveryFlushKeys) flush();
  }

  ProbeArena arena;

 private:
  void flush() {
    std::vector<EdgeKey>& keys = arena.discovered();
    if (keys.empty()) return;
    discoveries_->record_discoveries(keys);
    keys.clear();
  }

  const SharedProbeCache* discoveries_;
};

/// Routing proper: every message independently through the (cached)
/// environment. Messages are independent, so a work-stealing index loop with
/// a fresh-per-thread router reproduces the sequential outcome exactly.
/// Each worker owns one WorkerProbeState, created here in make_body.
/// `discoveries`: the implicit leg's key-addressed cache, or nullptr.
// analyze:hot-root(routing worker body: per-message inner loop of every sweep)
void route_all(const Topology& graph, const EdgeSampler& env,
               const RouterFactory& make_router, const std::shared_ptr<Router>& prototype,
               const std::vector<TrafficMessage>& messages, const TrafficConfig& config,
               const FlatAdjacency* flat, const DistanceOracle* oracle,
               const SharedProbeCache* discoveries,
               std::vector<MessageOutcome>& outcomes, std::vector<Path>& paths) {
  // Instrumentation is resolved once, outside the loop: counter ids here,
  // then one per-worker span plus two plain-store adds per message inside.
  obs::CounterRegistry* counters =
      config.metrics != nullptr ? &config.metrics->counters() : nullptr;
  const obs::CounterRegistry::CounterId probe_calls =
      counters != nullptr ? counters->id("traffic.routing.probe_calls") : 0;
  const obs::CounterRegistry::CounterId expansions =
      counters != nullptr ? counters->id("traffic.routing.bfs_expansions") : 0;
  obs::PhaseProfiler* profiler =
      config.metrics != nullptr ? &config.metrics->profiler() : nullptr;
  // When frontier classification already constructed one router, the first
  // worker to start adopts it rather than paying a second construction
  // (landmark tables and the like live in router ctors). Factories hand out
  // identically-behaving routers — the same property that makes the
  // work-stealing loop legal — so which worker adopts it cannot matter.
  std::atomic<Router*> unclaimed{prototype.get()};
  parallel_index_loop(messages.size(), config.threads, [&] {
    // acq_rel: the claim must be unique (RMW) and the winner must observe the
    // fully-constructed prototype; thread spawn already orders the ctor, so
    // this spells the minimum ordering that keeps both properties explicit.
    const std::shared_ptr<Router> router =
        unclaimed.exchange(nullptr, std::memory_order_acq_rel) != nullptr
            ? prototype
            : make_router();
    const std::shared_ptr<WorkerProbeState> state =
        std::make_shared<WorkerProbeState>(discoveries);
    // The worker's whole routing stint is one span on its own track; the
    // body closure (and with it the scope) is destroyed on the worker
    // thread when the worker drains, closing the span there.
    const std::shared_ptr<obs::PhaseProfiler::Scope> span =
        std::make_shared<obs::PhaseProfiler::Scope>(profiler, "route-worker");
    return [&, router, state, span](std::size_t i) {
      const TrafficMessage& msg = messages[i];
      MessageOutcome& out = outcomes[i];
      out.message = msg;
      if (msg.source == msg.target) {
        out.routed = true;
        paths[i] = Path{msg.source};
        return;
      }
      ProbeContext ctx(graph, env, msg.source, router->required_mode(),
                       config.probe_budget, &state->arena, flat, oracle);
      std::optional<Path> path;
      try {
        path = router->route(ctx, msg.source, msg.target);
      } catch (const ProbeBudgetExceeded&) {
        out.censored = true;
      }
      out.distinct_probes = ctx.distinct_probes();
      state->after_message();
      if (counters != nullptr) {
        counters->add(probe_calls, ctx.total_probes());
        counters->add(expansions, ctx.expansions());
      }
      if (path) {
        out.routed = true;
        // Routers may legally return walks; forwarding a loop would burn
        // capacity for nothing, so ship along the simplified path.
        paths[i] = simplify_walk(*path);
        out.path_edges = path_length(paths[i]);
      }
    };
  });
}

}  // namespace

std::vector<RoutedJourney> route_and_validate(
    const Topology& graph, const EdgeSampler& sampler, const RouterFactory& make_router,
    const std::vector<TrafficMessage>& messages, const TrafficConfig& config,
    TrafficResult& result) {
  obs::PhaseProfiler* profiler =
      config.metrics != nullptr ? &config.metrics->profiler() : nullptr;
  const obs::PhaseProfiler::Scope routing_scope(profiler, "routing");
  std::vector<Path> paths(messages.size());  // analyze:allow-hot-alloc(per-batch result array sized once)

  // One adjacency resolution for the whole batch: every probe, validation
  // scan, and slot resolution below goes through the same backend, so the
  // --adjacency A/B switch compares whole routing phases. An externally
  // provided snapshot (config.flat_snapshot — e.g. an mmap view from a
  // snapshot directory) short-circuits materialization for every mode but
  // kImplicit, which stays a pure virtual-dispatch A/B leg. Each leg then
  // sizes its state from what it holds: the flat leg from the snapshot's
  // edge ids, the implicit leg from the edges the batch probes — nothing
  // here asks the topology for a whole-graph index.
  const FlatAdjacency* flat = nullptr;
  {
    const obs::PhaseProfiler::Scope adjacency_scope(profiler, "adjacency");
    if (config.adjacency != AdjacencyMode::kImplicit) {
      flat = config.flat_snapshot != nullptr ? config.flat_snapshot
                                             : resolve_adjacency(graph, config.adjacency);
    }
  }
  const AdjacencyView adj(graph, flat);

  // The flat leg probes through its edge-id-addressed cache; the implicit
  // leg probes the raw sampler and records discoveries in batches.
  std::optional<SharedProbeCache> cache;
  const EdgeSampler* env = &sampler;
  const SharedProbeCache* discoveries = nullptr;
  if (config.use_shared_cache) {
    const obs::PhaseProfiler::Scope cache_scope(profiler, "shared-cache");
    if (flat != nullptr) {
      env = &cache.emplace(sampler, *flat);
    } else {
      discoveries = &cache.emplace(sampler, graph);
    }
  }
  // FrontierMode::kBatch (flat path only): classify the batch's router via
  // one prototype — factories hand out identically-behaving routers, that is
  // what makes thread-parallel routing legal in the first place. Flood and
  // bidirectional batches go through the block executor; metric routers stay
  // per-message but read precomputed oracle columns instead of running one
  // BFS per graph.distance call (closed-form metrics need neither). All
  // three treatments are pure accelerations — bit-identical outcomes.
  const DistanceOracle* oracle = nullptr;
  std::optional<BatchSearchKind> batch_kind;
  bool probe_target_first = false;
  std::shared_ptr<Router> prototype;  // adopted by route_all's first worker
  if (config.frontier == FrontierMode::kBatch && flat != nullptr) {
    prototype = make_router();
    if (const auto* flood = dynamic_cast<const FloodRouter*>(prototype.get())) {
      batch_kind = BatchSearchKind::kFlood;
      probe_target_first = flood->probe_target_first();
    } else if (dynamic_cast<const BidirectionalBfsRouter*>(prototype.get()) != nullptr) {
      batch_kind = BatchSearchKind::kBidirectional;
    } else if (prototype->uses_distance_metric() && !graph.has_closed_form_metric()) {
      const obs::PhaseProfiler::Scope prewarm_scope(profiler, "oracle-prewarm");
      const DistanceOracle& cached = flat->distance_oracle();
      std::vector<VertexId> targets;
      targets.reserve(messages.size());  // analyze:allow-hot-alloc(per-batch oracle prewarm list)
      // analyze:allow-hot-alloc(per-batch oracle prewarm list)
      for (const TrafficMessage& msg : messages) targets.push_back(msg.target);
      cached.ensure_targets(targets);  // dedups; first-appearance order
      oracle = &cached;
    }
  }
  {
    const obs::PhaseProfiler::Scope route_scope(profiler, "route");
    if (batch_kind) {
      route_frontier_batched(graph, *env, messages, config, *flat, *batch_kind,
                             probe_target_first, result.outcomes, paths);
    } else {
      route_all(graph, *env, make_router, prototype, messages, config, flat, oracle,
                discoveries, result.outcomes, paths);
    }
  }
  if (cache) {
    result.unique_edges_probed = cache->unique_edges();
    result.cache_misses = cache->unique_edges();
  }

  // Validate paths and resolve every hop's incident slot.
  const obs::PhaseProfiler::Scope validate_scope(profiler, "validate");
  std::vector<RoutedJourney> journeys(messages.size());  // analyze:allow-hot-alloc(per-batch result array sized once)
  for (std::size_t i = 0; i < messages.size(); ++i) {
    MessageOutcome& out = result.outcomes[i];
    result.total_distinct_probes += out.distinct_probes;
    if (out.censored) {
      ++result.censored;
      continue;
    }
    if (!out.routed) {
      ++result.failed_routing;
      continue;
    }
    // Validate before counting as routed, so the exact partition
    // routed + failed + censored + invalid == messages holds.
    Path& path = paths[i];
    if (!is_valid_open_path(adj, sampler, path, out.message.source, out.message.target)) {
      ++result.invalid_paths;
      out.routed = false;
      out.path_edges = 0;  // the rejected path's hop count must not leak out
      continue;
    }
    RoutedJourney& journey = journeys[i];
    journey.slots.reserve(path.size() > 0 ? path.size() - 1 : 0);  // analyze:allow-hot-alloc(journey slot materialization, reserved to hop count)
    bool ok = true;
    for (std::size_t step = 0; step + 1 < path.size(); ++step) {
      const int idx = adj.edge_index_of(path[step], path[step + 1]);
      if (idx < 0) {  // unreachable: the path was just validated hop by hop
        ok = false;
        break;
      }
      journey.slots.push_back(idx);  // analyze:allow-hot-alloc(fills the reservation above)
    }
    if (!ok) {
      ++result.invalid_paths;
      out.routed = false;
      out.path_edges = 0;
      journey.slots.clear();
      continue;
    }
    journey.path = std::move(path);
    ++result.routed;
  }
  // The per-message memo means the cache sees exactly one lookup (or, on
  // the implicit leg, one recorded key) per (message, edge), so every
  // distinct probe that was not a miss was a hit:
  // hits + misses == total_distinct_probes by definition, with no counter
  // on the lookup path (see TrafficResult::cache_hits).
  if (cache) result.cache_hits = result.total_distinct_probes - result.cache_misses;
  return journeys;
}

}  // namespace faultroute::detail
