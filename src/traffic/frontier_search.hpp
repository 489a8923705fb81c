#pragma once

#include <vector>

#include "core/path.hpp"
#include "traffic/traffic_engine.hpp"

namespace faultroute::detail {

/// Which search-router family the batched frontier executor runs. Only
/// families whose search bodies the executor can call with its own probe
/// type (core/routers/bfs_searches.hpp) are eligible; everything else routes
/// per message (with metric routers accelerated by the DistanceOracle
/// instead — see routing_phase.cpp).
enum class BatchSearchKind {
  kFlood,          ///< FloodRouter (plain or target-first)
  kBidirectional,  ///< BidirectionalBfsRouter
};

/// The FrontierMode::kBatch routing loop for flood / bidirectional batches:
/// messages are processed in blocks of 64 per worker, sharing one
/// epoch-stamped per-edge probe-memo table whose 64-bit words carry one
/// membership bit per block message (so "has message m probed edge e" is a
/// single AND), with per-message parent marks and queues pooled in the
/// worker's scratch. Every observable — outcomes, probe/expansion counts,
/// censoring points, shared-cache hit/miss totals, and the returned paths —
/// is bit-identical to route_all driving the real router per message
/// (tests/test_frontier_search.cpp): each message runs the router's own
/// search body (core/routers/bfs_searches.hpp), and each (message, edge)
/// first probe still reaches the shared environment exactly once. Requires the flat adjacency
/// path (the caller falls back to per-message routing otherwise).
///
/// `env` is the same (possibly cache-wrapped) sampler route_all would probe
/// through; `outcomes` and `paths` must be sized to messages.size().
void route_frontier_batched(const Topology& graph, const EdgeSampler& env,
                            const std::vector<TrafficMessage>& messages,
                            const TrafficConfig& config, const FlatAdjacency& flat,
                            BatchSearchKind kind, bool probe_target_first,
                            std::vector<MessageOutcome>& outcomes,
                            std::vector<Path>& paths);

}  // namespace faultroute::detail
