#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "graph/epoch_stamps.hpp"
#include "graph/flat_adjacency.hpp"
#include "graph/key_slots.hpp"
#include "graph/topology.hpp"

namespace faultroute {

/// Interchangeable visited/parent mark backends for breadth-first searches.
/// Every BFS in the library — the fault-free metric, the percolation
/// analyses, the search routers — is written once over a marks type: dense
/// vertex-indexed arrays where the vertex space can be materialized, pooled
/// key slots (graph/key_slots.hpp) where it cannot. Marks never influence
/// traversal order — only membership and parent recall — so the two
/// backends produce bit-identical searches.

/// Key-addressed marks: pooled KeySlots, works on any implicit graph.
/// Like the dense arrays, the table persists across searches and is
/// emptied by an epoch bump, so steady-state searching through a pooled
/// instance allocates nothing.
class HashMarks {
 public:
  /// Empties the marks for a fresh search (the vertex count is ignored;
  /// it exists so search loops can be generic over both backends).
  void begin(std::uint64_t /*num_vertices*/) { slots_.clear(); }

  [[nodiscard]] bool contains(VertexId v) const { return slots_.contains(v); }
  /// The mark of v, which must be marked.
  [[nodiscard]] VertexId at(VertexId v) const {
    VertexId out = 0;
    [[maybe_unused]] const bool marked = slots_.find(v, out);
    assert(marked);
    return out;
  }
  /// Single-probe contains + at.
  [[nodiscard]] bool lookup(VertexId v, VertexId& out) const { return slots_.find(v, out); }
  /// Inserts v -> value; returns false (and leaves the mark) if v is marked.
  bool emplace(VertexId v, VertexId value) { return slots_.emplace(v, value); }

 private:
  KeySlots<VertexId> slots_;
};

/// Dense marks: vertex-indexed values behind EpochStamps, so clearing
/// between searches is one integer increment and steady-state searching
/// through a pooled instance allocates nothing. Requires a materializable
/// vertex space — exactly what a flat adjacency snapshot guarantees.
class DenseMarks {
 public:
  /// Sizes for `n` vertices (grow-only) and starts a fresh search.
  void begin(std::uint64_t n) {
    stamps_.begin(n);
    if (value_.size() < n) {
      value_.resize(n, 0);  // analyze:allow-hot-alloc(grow-only pooled marks warm-up)
    }
  }

  [[nodiscard]] bool contains(VertexId v) const { return stamps_.live(v); }
  [[nodiscard]] VertexId at(VertexId v) const { return value_[v]; }
  [[nodiscard]] bool lookup(VertexId v, VertexId& out) const {
    if (!stamps_.live(v)) return false;
    out = value_[v];
    return true;
  }
  bool emplace(VertexId v, VertexId value) {
    if (stamps_.live(v)) return false;
    stamps_.stamp(v);
    value_[v] = value;
    return true;
  }

 private:
  EpochStamps stamps_;
  std::vector<VertexId> value_;
};

/// A pooled dense search: marks plus the FIFO queue, reused across searches
/// so that steady-state searching allocates nothing.
struct DenseSearchState {
  DenseMarks marks;
  std::vector<VertexId> queue;
};

/// The path from a search's root to `target` recorded by parent marks,
/// where the root is the one vertex marked as its own parent.
template <typename Marks>
[[nodiscard]] std::vector<VertexId> path_from_parents(const Marks& parent, VertexId target) {
  std::vector<VertexId> path;
  for (VertexId x = target;;) {
    path.push_back(x);  // analyze:allow-hot-alloc(materializes one result path per found target)
    const VertexId up = parent.at(x);
    if (up == x) break;
    x = up;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// Adjacency rows over a CSR snapshot: array loads, no virtual dispatch and
/// no per-query backend branch. The search loops below are written over a
/// rows type; a row is fetched once per expanded vertex and its slots are
/// the vertex's incident-edge indices, in order. Rows are one pointer and
/// are passed by value, so the searches keep it in a register across the
/// opaque probe and sampler calls of their inner loops.
struct CsrRows {
  const FlatAdjacency* flat;

  struct Row {
    std::uint64_t base;  // flat position of slot 0
    int degree;
  };

  [[nodiscard]] std::uint64_t num_vertices() const { return flat->num_vertices(); }
  [[nodiscard]] Row row(VertexId x) const { return {flat->row_begin(x), flat->degree(x)}; }
  [[nodiscard]] VertexId neighbor(const Row& r, int i) const {
    return flat->neighbor_at(r.base + static_cast<std::uint64_t>(i));
  }
  /// Whether slot i survives `sampler`, asked by edge id and key.
  template <typename Sampler>
  [[nodiscard]] bool is_open(const Sampler& sampler, const Row& r, int i) const {
    const std::uint64_t pos = r.base + static_cast<std::uint64_t>(i);
    return sampler.is_open_indexed(flat->edge_id_at(pos), flat->edge_key_at(pos));
  }
  [[nodiscard]] int edge_index_of(VertexId u, VertexId v) const {
    return faultroute::edge_index_of(*flat, u, v);
  }
};

/// The same rows over the virtual Topology interface — the only option for
/// graphs too large to snapshot.
struct TopologyRows {
  const Topology* graph;

  struct Row {
    VertexId vertex;
    int degree;
  };

  [[nodiscard]] std::uint64_t num_vertices() const { return graph->num_vertices(); }
  [[nodiscard]] Row row(VertexId x) const { return {x, graph->degree(x)}; }
  [[nodiscard]] VertexId neighbor(const Row& r, int i) const {
    return graph->neighbor(r.vertex, i);
  }
  template <typename Sampler>
  [[nodiscard]] bool is_open(const Sampler& sampler, const Row& r, int i) const {
    return sampler.is_open(graph->edge_key(r.vertex, i));
  }
  [[nodiscard]] int edge_index_of(VertexId u, VertexId v) const {
    return faultroute::edge_index_of(*graph, u, v);
  }
};

/// The breadth-first search behind Topology::distance / shortest_path and
/// the percolation analyses (open_cluster_of, open_connected,
/// chemical_path): FIFO from `source`, each row scanned in slot order,
/// crossing slot i of a row only if `open(row, i)` admits it (every edge for
/// the fault-free metric, the sampler's verdict under percolation).
///
/// Each newly discovered vertex y is marked (its parent is the vertex it
/// was reached from; the source is its own parent), appended to `queue`,
/// and passed to `visit(marks, y, depth)` with its BFS distance from the
/// source; a false return stops the search. Returns true iff `visit`
/// stopped it, false once the source's reachable set is exhausted. On
/// return `queue` holds the discovered vertices in visit order.
template <typename Rows, typename Marks, typename Open, typename Visit>
bool breadth_first_search(Rows rows, Marks& marks, std::vector<VertexId>& queue,
                          VertexId source, Open&& open, Visit&& visit) {
  marks.begin(rows.num_vertices());
  marks.emplace(source, source);
  queue.clear();
  queue.push_back(source);  // analyze:allow-hot-alloc(pooled queue: grows only until it fits the largest search)
  std::uint64_t depth = 0;    // BFS distance of queue[head]
  std::size_t level_end = 1;  // queue index where depth + 1 begins
  for (std::size_t head = 0; head < queue.size(); ++head) {
    if (head == level_end) {
      ++depth;
      level_end = queue.size();
    }
    const VertexId x = queue[head];
    const auto row = rows.row(x);
    for (int i = 0; i < row.degree; ++i) {
      const VertexId y = rows.neighbor(row, i);
      if (marks.contains(y)) continue;
      if (!open(row, i)) continue;
      marks.emplace(y, x);
      queue.push_back(y);  // analyze:allow-hot-alloc(same pooled queue)
      if (!visit(static_cast<const Marks&>(marks), y, depth + 1)) return true;
    }
  }
  return false;
}

}  // namespace faultroute
