#pragma once

#include <vector>

#include "graph/bfs.hpp"
#include "graph/flat_adjacency.hpp"
#include "graph/topology.hpp"
#include "percolation/edge_sampler.hpp"

namespace faultroute::detail {

/// The percolation analyses' pooled dense search state, one per thread so
/// the scenario runner's cell-parallel sweeps stay race-free. Repeated
/// analyses (chemical-distance sweeps, permutation prechecks) allocate
/// nothing for marks in steady state.
inline DenseSearchState& open_search_state() {
  static thread_local DenseSearchState state;
  return state;
}

/// Runs `search(rows, marks, queue, open)` — one body, two instantiations —
/// on the adjacency backend `mode` resolves to: CSR rows with this thread's
/// pooled dense marks when flat, the virtual interface with fresh hash
/// marks otherwise (the only option for huge implicit graphs). `open(row,
/// i)` is `sampler`'s verdict on slot i of a row.
template <typename Search>
decltype(auto) with_open_search(const Topology& graph, const EdgeSampler& sampler,
                                AdjacencyMode mode, Search&& search) {
  const auto run = [&](const auto& rows, auto& marks,
                       std::vector<VertexId>& queue) -> decltype(auto) {
    const auto open = [&](const auto& row, int i) { return rows.is_open(sampler, row, i); };
    return search(rows, marks, queue, open);
  };
  if (const FlatAdjacency* flat = resolve_adjacency(graph, mode)) {
    DenseSearchState& state = open_search_state();
    return run(CsrRows{flat}, state.marks, state.queue);
  }
  HashMarks marks;
  std::vector<VertexId> queue;
  return run(TopologyRows{&graph}, marks, queue);
}

}  // namespace faultroute::detail
