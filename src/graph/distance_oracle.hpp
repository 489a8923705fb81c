#pragma once

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "graph/flat_adjacency.hpp"

namespace faultroute {

/// A cached fault-free distance oracle over a FlatAdjacency CSR snapshot.
///
/// Topology families without a closed-form metric (de Bruijn, shuffle-
/// exchange, CCC, butterfly, ...) answer `Topology::distance` with a fresh
/// BFS per call. Routers that steer by the fault-free metric (greedy
/// descent, best-first, the hybrid's greedy phase) ask for d(x, target)
/// once per incident slot of every vertex they visit, so one routed message
/// re-derives the same single-target distance field hundreds of times —
/// the dominant cost of whole scenario sweeps (the de Bruijn router
/// shootout, pre-oracle).
///
/// The oracle replaces that with two precomputed layers:
///
///  * **Exact per-target columns.** `ensure_targets` runs one multi-source,
///    direction-optimizing BFS per block of up to 64 targets over the CSR
///    snapshot: the per-vertex frontier/visited state is a single 64-bit
///    word (bit m = target m of the block), a level expands top-down
///    (frontier rows scanned forward) while the frontier is sparse and
///    switches bottom-up (unfinished vertices pull from neighbor words)
///    once it saturates, and every newly-set bit records the level in that
///    target's column. BFS *distances* — unlike BFS parent trees — do not
///    depend on traversal order, so the batched sweep is exactly
///    `Topology::distance` value-for-value, including the
///    unreachable-sentinel convention (== num_vertices()).
///  * **ALT landmark bounds.** A handful of farthest-point landmarks with
///    full distance columns give the classic triangle-inequality lower
///    bound max_l |d(l,u) - d(l,v)| <= d(u,v), admissible and symmetric
///    (pinned by tests/test_distance_oracle.cpp). Exact columns answer the
///    routing hot path; the bounds are the cheap any-pair fallback.
///
/// Columns are memoised under a shared_mutex and never evicted, capped by a
/// byte budget (requests past the cap simply return nullptr and callers
/// fall back to `Topology::distance`, which is value-identical — the budget
/// affects speed, never results). One oracle is cached per FlatAdjacency
/// (`FlatAdjacency::distance_oracle()`), i.e. per topology, so scenario
/// sweeps share columns across every p-value, router, and trial of a
/// topology. Thread-safe under const access like the rest of the graph
/// layer.
class DistanceOracle {
 public:
  /// Landmarks to select (farthest-point, deterministic).
  static constexpr std::size_t kDefaultLandmarks = 8;
  /// Exact-column memo cap. A column costs 4 bytes/vertex; the default
  /// admits ~16k columns on a 2^12-vertex graph and ~256 on 2^20 vertices.
  static constexpr std::uint64_t kDefaultColumnBudgetBytes = 1ull << 30;

  /// Builds the landmark layer eagerly (num_landmarks BFS sweeps); exact
  /// columns are built on demand by ensure_targets. `flat` must outlive the
  /// oracle — FlatAdjacency::distance_oracle() guarantees it by caching the
  /// oracle on the snapshot. Graphs with >= 2^32 vertices get an inert
  /// oracle (columns would not fit uint32); every query then falls back.
  explicit DistanceOracle(const FlatAdjacency& flat,
                          std::size_t num_landmarks = kDefaultLandmarks,
                          std::uint64_t column_budget_bytes = kDefaultColumnBudgetBytes);

  /// The unreachable sentinel stored in columns: num_vertices() as uint32,
  /// so a widened column entry equals Topology::distance verbatim.
  [[nodiscard]] std::uint32_t unreachable() const { return unreachable_; }

  /// Builds (and memoises) the exact column of every listed target that is
  /// missing, in list order, until the byte budget is hit. Thread-safe;
  /// concurrent callers serialize on the builder lock.
  void ensure_targets(const std::vector<VertexId>& targets) const;

  /// The exact column for `target`: entry x is the fault-free distance
  /// d(x, target), unreachable() if disconnected. nullptr when the column
  /// was never built (budget, or an inert oracle) — callers must fall back
  /// to Topology::distance, which returns the same values. The pointer
  /// stays valid for the oracle's lifetime (columns are never evicted).
  [[nodiscard]] const std::uint32_t* distances_to(VertexId target) const;

  /// ALT lower bound on d(u, v): admissible (<= the true distance) and
  /// symmetric. Returns the exact sentinel distance when the landmarks
  /// prove u and v disconnected; 0 when nothing is known.
  [[nodiscard]] std::uint64_t lower_bound(VertexId u, VertexId v) const;

  [[nodiscard]] std::size_t num_landmarks() const { return landmarks_.size(); }
  [[nodiscard]] VertexId landmark(std::size_t j) const { return landmarks_[j]; }

  /// Memoised exact columns built so far (landmark columns not included).
  [[nodiscard]] std::size_t num_columns() const;

 private:
  using Column = std::unique_ptr<std::uint32_t[]>;

  /// One direction-optimizing multi-source BFS for up to 64 sources;
  /// cols[m] receives the full distance column of sources[m].
  void bfs_block(const std::vector<VertexId>& sources,
                 const std::vector<std::uint32_t*>& cols) const;
  void select_landmarks(std::size_t num_landmarks);

  const FlatAdjacency* flat_;
  std::uint64_t n_ = 0;
  std::uint32_t unreachable_ = 0;
  bool usable_ = false;  // false for graphs whose distances overflow uint32
  std::uint64_t column_budget_bytes_ = 0;

  // Immutable after construction.
  std::vector<VertexId> landmarks_;
  std::vector<Column> landmark_columns_;

  // Exact-column memo: grow-only, guarded by mutex_ (shared for lookups,
  // exclusive while ensure_targets inserts). Column storage is stable
  // (unique_ptr arrays), so a pointer handed out under the shared lock
  // outlives any later rehash.
  mutable std::shared_mutex mutex_;
  // lint:allow-hash(cold memo of sparse targets; hot path reads the columns)
  mutable std::unordered_map<VertexId, Column> columns_;
  mutable std::uint64_t column_bytes_ = 0;

  /// Per-vertex bitset state pooled across bfs_block calls: grown once to
  /// n_ words on first use, then only refilled. Every bfs_block caller
  /// serializes (the ctor runs single-threaded, ensure_targets holds mutex_
  /// exclusively), so one shared scratch is race-free — same pooling idiom
  /// as ProbeArena / DenseMarks.
  struct BlockScratch {
    std::vector<std::uint64_t> visited;
    std::vector<std::uint64_t> frontier;
    std::vector<std::uint64_t> next;
  };
  mutable BlockScratch scratch_;
};

/// Fault-free distance of x to the fixed target a column was fetched for:
/// one array load when the oracle column is cached, graph.distance (a BFS on
/// families without a closed form) otherwise. Both branches return identical
/// values — the column IS graph.distance memoised — so metric routers can
/// call this unconditionally without affecting results.
inline std::uint64_t metric_distance(const Topology& graph, const std::uint32_t* column,
                                     VertexId x, VertexId target) {
  return column != nullptr ? column[x] : graph.distance(x, target);
}

}  // namespace faultroute
