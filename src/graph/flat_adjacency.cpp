#include "graph/flat_adjacency.hpp"

#include <stdexcept>

#include "graph/distance_oracle.hpp"
#include "obs/counter_registry.hpp"

namespace faultroute {

FlatAdjacency::FlatAdjacency(const Topology& graph)
    : graph_(&graph), offsets_(nullptr) {
  // Global counter (not per-run): snapshots are often materialized by
  // library callers with no RunMetrics in scope, and a surprise count here
  // is exactly what --metrics should surface (e.g. an accidental rebuild
  // per cell instead of one per topology). Mapped-snapshot views (the
  // constructor in snapshot.cpp) deliberately do not count — nothing is
  // materialized there, which is what CI's warm-start check pins.
  obs::global_count("graph.flat_adjacency.materializations");
  const ChannelIndex& index = graph.channel_index();
  offsets_ = index.offsets_data();
  num_vertices_ = graph.num_vertices();

  num_channels_ = index.num_channels();
  owned_neighbors_.resize(num_channels_);
  owned_keys_.resize(num_channels_);
  owned_edge_ids_.resize(num_channels_);
  // One pass in channel order: slot i of v lands at flat position
  // channel_of(v, i) by construction. The edge-id table is the index's own
  // (lazily built) channel -> undirected-edge-id map, copied so a hot-path
  // lookup is one load with no call_once fence.
  std::uint32_t channel = 0;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    const int deg = graph.degree(v);
    for (int i = 0; i < deg; ++i, ++channel) {
      owned_neighbors_[channel] = graph.neighbor(v, i);
      owned_keys_[channel] = graph.edge_key(v, i);
      owned_edge_ids_[channel] = index.edge_id_of(channel);
    }
  }
  num_edge_ids_ = index.num_edge_ids();
  neighbors_ = owned_neighbors_.data();
  keys_ = owned_keys_.data();
  edge_ids_ = owned_edge_ids_.data();
}

FlatAdjacency::~FlatAdjacency() = default;

const DistanceOracle& FlatAdjacency::distance_oracle() const {
  std::call_once(oracle_once_,  // analyze:allow-hot-alloc(lazy oracle build, once per snapshot under call_once)
                 [this] { oracle_ = std::make_unique<DistanceOracle>(*this); });
  return *oracle_;
}

AdjacencyMode parse_adjacency_mode(const std::string& name) {
  if (name == "flat") return AdjacencyMode::kFlat;
  if (name == "implicit") return AdjacencyMode::kImplicit;
  if (name == "auto") return AdjacencyMode::kAuto;
  // analyze:allow-throw-safety(config parse error raised during scenario setup)
  throw std::invalid_argument("adjacency mode must be 'flat', 'implicit', or 'auto', got '" +
                              name + "'");
}

std::string adjacency_mode_name(AdjacencyMode mode) {
  switch (mode) {
    case AdjacencyMode::kFlat:
      return "flat";
    case AdjacencyMode::kImplicit:
      return "implicit";
    case AdjacencyMode::kAuto:
      return "auto";
  }
  return "auto";  // unreachable
}

const FlatAdjacency* resolve_adjacency(const Topology& graph, AdjacencyMode mode,
                                       std::uint64_t auto_budget_channels) {
  switch (mode) {
    case AdjacencyMode::kFlat:
      return &graph.flat_adjacency();
    case AdjacencyMode::kImplicit:
      return nullptr;
    case AdjacencyMode::kAuto:
      // Compared as num_edges() <= budget / 2 so that no edge count, however
      // large, can overflow the doubling.
      if (graph.num_edges() <= auto_budget_channels / 2) return &graph.flat_adjacency();
      // Falling back to virtual dispatch above budget is correct but slow;
      // count it globally so large-graph perf regressions are visible in
      // --metrics reports rather than only in wall clock.
      obs::global_count("graph.flat_adjacency.auto_fallbacks");
      return nullptr;
  }
  return nullptr;  // unreachable
}

int AdjacencyView::edge_index_of(VertexId u, VertexId v) const {
  if (flat_ != nullptr) return faultroute::edge_index_of(*flat_, u, v);
  return faultroute::edge_index_of(*graph_, u, v);
}

int edge_index_of(const FlatAdjacency& flat, VertexId u, VertexId v) {
  const std::uint64_t begin = flat.row_begin(u);
  const std::uint64_t end = flat.row_end(u);
  for (std::uint64_t pos = begin; pos < end; ++pos) {
    if (flat.neighbor_at(pos) == v) return static_cast<int>(pos - begin);
  }
  return -1;
}

}  // namespace faultroute
