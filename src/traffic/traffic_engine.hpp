#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include <string>

#include "analysis/table.hpp"
#include "core/experiment.hpp"  // RouterFactory
#include "core/path.hpp"
#include "core/router.hpp"
#include "graph/flat_adjacency.hpp"
#include "graph/topology.hpp"
#include "percolation/edge_sampler.hpp"
#include "traffic/message.hpp"

namespace faultroute {

namespace obs {
class RunMetrics;
}

/// How the routing phase schedules per-message searches. A pure A/B switch
/// in the mould of AdjacencyMode: every outcome,
/// aggregate, and counter is bit-identical across modes (held by
/// tests/test_frontier_search.cpp and the golden replays in
/// tests/test_traffic_golden.cpp).
enum class FrontierMode {
  /// Batched frontier search (the fast default): flood and bidirectional
  /// messages run through the block executor in src/traffic/frontier_search
  /// .cpp (64 messages share bitset probe-memo words per worker), and metric
  /// routers (greedy / best-first / hybrid) read precomputed distance
  /// columns from the topology's cached DistanceOracle instead of running
  /// one BFS per graph.distance call.
  kBatch,
  /// One independent search per message, no oracle prewarm — the original
  /// code path, kept as the differential baseline.
  kPerMessage,
};

/// Parses "batch" / "permsg" (throws std::invalid_argument otherwise); the
/// inverse of frontier_mode_name.
[[nodiscard]] FrontierMode parse_frontier_mode(const std::string& name);
[[nodiscard]] std::string frontier_mode_name(FrontierMode mode);

/// Configuration of a traffic run.
struct TrafficConfig {
  /// Messages a directed edge channel can transmit per timestep (>= 1).
  /// An undirected topology edge is two independent channels, one per
  /// direction, as in standard store-and-forward network models.
  std::uint64_t edge_capacity = 1;
  /// Probe budget per message (nullopt = unbounded); exhausting it makes the
  /// message fail routing (counted in `censored`).
  std::optional<std::uint64_t> probe_budget;
  /// Worker threads for the routing phase (0 = hardware concurrency). The
  /// result is bit-identical for every thread count.
  unsigned threads = 0;
  /// Adjacency backend for routing, validation, and journey compilation:
  /// kFlat resolves every neighbor / edge-key / edge-id query through the
  /// topology's CSR snapshot (Topology::flat_adjacency()), kImplicit through
  /// the virtual interface, kAuto picks flat iff the 2·num_edges() directed
  /// channels fit kDefaultFlatBudgetChannels (~20 bytes per channel once,
  /// cached). Outcomes and counters are bit-identical across modes
  /// (tests/test_flat_adjacency.cpp and the golden replays in
  /// tests/test_traffic_golden.cpp); flat is faster per probe, and implicit
  /// builds nothing — its probe state, shared cache, and delivery state all
  /// grow with what the batch touches — so leave it on auto.
  AdjacencyMode adjacency = AdjacencyMode::kAuto;
  /// When non-null, the routing phase resolves flat-adjacency queries
  /// through this externally provided snapshot — typically a memory-mapped
  /// view opened from a snapshot directory (graph/snapshot.hpp /
  /// open_snapshot_adjacency) — instead of materializing one via
  /// resolve_adjacency. Honoured for every adjacency mode except kImplicit,
  /// *including* kAuto above the channel budget: a mapped view costs no
  /// build, so the materialization budget does not apply and huge graphs
  /// keep the CSR fast path. Must describe the same topology (bit-identical
  /// results are pinned by tests/test_snapshot.cpp) and outlive the run.
  const FlatAdjacency* flat_snapshot = nullptr;
  /// Routing-phase scheduling strategy (see FrontierMode above). kBatch is
  /// a pure accelerator — outcomes are bit-identical to kPerMessage — and
  /// only engages on the flat adjacency path; implicit runs fall back to
  /// per-message search regardless.
  FrontierMode frontier = FrontierMode::kBatch;
  /// Safety cap on simulated timesteps (0 = unbounded). With capacity >= 1
  /// every queued message eventually drains, so the cap only guards against
  /// pathological configs; messages still in flight when it is hit are
  /// counted as `stranded`.
  std::uint64_t max_steps = 0;
  /// When non-null, the run feeds the observability sink (src/obs/): counters
  /// for every phase, nested phase spans on the profiler, and — if its
  /// delivery sampler is enabled — a per-step delivery time-series. The
  /// pointee must outlive the run. Off (nullptr) costs one null check per
  /// site; on, simulation results are bit-identical (pinned by
  /// tests/test_observability.cpp).
  obs::RunMetrics* metrics = nullptr;
};

/// Per-message outcome, indexed by message id.
struct MessageOutcome {
  TrafficMessage message;
  bool routed = false;     // router returned a path
  bool censored = false;   // probe budget exhausted
  bool delivered = false;  // path fully traversed in the simulation
  std::uint64_t distinct_probes = 0;
  std::uint64_t path_edges = 0;
  std::uint64_t finish_time = 0;  // delivery timestep (delivered only)
  /// finish - inject - path_edges: timesteps spent waiting in queues beyond
  /// the store-and-forward minimum of one step per hop.
  std::uint64_t queueing_delay = 0;
};

/// Aggregate result of a traffic run. All fields are deterministic in
/// (graph, sampler, workload, config) — independent of thread count.
struct TrafficResult {
  std::uint64_t messages = 0;
  std::uint64_t routed = 0;
  std::uint64_t failed_routing = 0;  // router gave up (target unreachable or incomplete router)
  std::uint64_t censored = 0;        // probe budget exhausted
  std::uint64_t invalid_paths = 0;   // failed verification (router bug)
  std::uint64_t delivered = 0;
  std::uint64_t stranded = 0;        // in flight when max_steps was hit

  // Probe economics (the SharedProbeCache amortisation).
  std::uint64_t total_distinct_probes = 0;  // summed per-message Definition-2 cost
  /// Union over messages = batch discovery cost.
  std::uint64_t unique_edges_probed = 0;
  /// SharedProbeCache hit/miss split of the batch's distinct probes. Exact
  /// and deterministic despite concurrent routing: ProbeContext memoises per
  /// message, so the cache sees each (message, edge) pair once. Misses are
  /// the edges the cache published (cache_misses == unique_edges_probed),
  /// and every other distinct probe was a hit, so cache_hits is defined as
  /// total_distinct_probes - cache_misses.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// total_distinct_probes / unique_edges_probed: how many times the batch
  /// re-used each discovered edge (1.0 = no sharing; grows with batch size).
  [[nodiscard]] double probe_amortization() const {
    return unique_edges_probed == 0
               ? 0.0
               : static_cast<double>(total_distinct_probes) /
                     static_cast<double>(unique_edges_probed);
  }

  // Congestion over undirected edges (both directions pooled).
  std::uint64_t max_edge_load = 0;  // traversals of the busiest edge
  double mean_edge_load = 0.0;      // over edges carrying >= 1 message
  std::uint64_t edges_used = 0;

  // Delay and throughput.
  std::uint64_t makespan = 0;  // last delivery timestep (over delivered messages)
  double mean_queueing_delay = 0.0;
  std::uint64_t max_queueing_delay = 0;
  double mean_path_edges = 0.0;  // over delivered messages
  /// delivered messages per timestep of makespan.
  [[nodiscard]] double throughput() const {
    return makespan == 0 ? static_cast<double>(delivered)
                         : static_cast<double>(delivered) / static_cast<double>(makespan);
  }

  // Delivery-engine introspection (see docs/ARCHITECTURE.md). These expose
  // the event-driven simulator's work and footprint: its state is O(used
  // channels + messages) arrays, never a function of simulated time or of
  // the graph's size, so long-horizon runs cost steps but not memory.
  std::uint64_t sim_steps = 0;          ///< timeline steps executed (idle gaps skipped)
  std::uint64_t admission_events = 0;   ///< queue admissions, incl. one per hop taken
  std::uint64_t transmissions = 0;      ///< channel transmit events (== summed edge load)
  std::uint64_t peak_active_channels = 0;  ///< most channels simultaneously queued
  /// Directed channels of the topology: 2·num_edges(), one per direction of
  /// every undirected edge (parallel edges included). Read off the topology,
  /// never built; the engine's per-channel state covers only the used ones.
  std::uint64_t channels = 0;

  std::vector<MessageOutcome> outcomes;  // indexed by message id
};

/// Discrete-time store-and-forward traffic simulation over one shared
/// percolation environment.
///
/// Phase 1 (routing, thread-parallel): every message is routed independently
/// by a fresh-per-thread router through its own ProbeContext, all layered
/// over one SharedProbeCache so environment discovery is amortised across
/// the batch. Messages are mutually independent given the (deterministic)
/// environment, so the phase parallelises with bit-identical results.
///
/// Phase 2 (delivery, sequential): the chosen paths are driven hop-by-hop
/// through per-channel FIFO queues with `edge_capacity` transmissions per
/// directed channel per timestep. Simultaneous queue admissions are ordered
/// by message id, making the whole simulation deterministic. The phase is
/// event-driven over dense channel ids numbered in first-appearance order
/// over the journeys: journeys compile to flat channel-id arrays, arrivals
/// flow through a two-bucket calendar (one hop costs exactly one step, so
/// only the next step is ever scheduled, and injection gaps are skipped by
/// cursor), and per-channel FIFOs are intrusive lists threaded through a
/// single per-message `next` array — state is O(used channels + messages),
/// independent of simulated time and of the graph's size.
///
/// Preconditions (all guaranteed by generate_workload): message ids are the
/// dense indices 0..messages.size()-1 in vector order, inject_times are
/// nondecreasing, and every source/target is a distinct valid vertex of
/// `graph`. config.edge_capacity >= 1. At most 2^32 - 1 messages (ids are
/// 32-bit throughout the engine); more throws std::invalid_argument rather
/// than silently aliasing ids.
///
/// Thread-safety: `graph` and `sampler` are only read (both must be
/// internally thread-safe under const access, which all library topologies
/// and samplers are); `make_router` is invoked once per worker thread, and
/// each returned router is driven by that worker alone. The caller keeps
/// all four arguments alive for the duration of the call.
///
/// Units: all times (inject/finish/makespan/delay, max_steps) are discrete
/// simulation timesteps; loads count message traversals of an edge.
///
/// Postcondition: the returned outcomes vector is indexed by message id,
/// and every field of TrafficResult depends only on (graph, sampler,
/// messages, config) — never on config.threads.
[[nodiscard]] TrafficResult run_traffic(const Topology& graph, const EdgeSampler& sampler,
                                        const RouterFactory& make_router,
                                        const std::vector<TrafficMessage>& messages,
                                        const TrafficConfig& config);

/// Renders the aggregate metrics as a two-column report table.
[[nodiscard]] Table traffic_table(const TrafficResult& result);

}  // namespace faultroute
