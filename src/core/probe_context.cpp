#include "core/probe_context.hpp"

#include "graph/distance_oracle.hpp"
#include "graph/flat_adjacency.hpp"

namespace faultroute {

void ProbeArena::begin_message(const FlatAdjacency* flat) {
  if (flat == nullptr) {
    memo_keys_.clear();
    reached_keys_.clear();
    return;
  }
  // Sized from the snapshot every message rather than cached behind an
  // address compare: a new snapshot allocated where a destroyed one lived
  // would alias such a cache. Arrays only ever grow; slots stamped for a
  // previous topology are harmless because a fresh epoch invalidates them.
  edge_stamps_.begin(flat->num_edge_ids());
  if (edge_open_.size() < flat->num_edge_ids()) {
    edge_open_.resize(flat->num_edge_ids(), 0);  // analyze:allow-hot-alloc(grow-only arena warm-up, reused across messages)
  }
  reached_stamps_.begin(flat->num_vertices());
}

ProbeContext::ProbeContext(const Topology& graph, const EdgeSampler& sampler,
                           VertexId source, RoutingMode mode,
                           std::optional<std::uint64_t> budget, ProbeArena* arena,
                           const FlatAdjacency* flat, const DistanceOracle* oracle)
    : graph_(graph), sampler_(sampler), source_(source), mode_(mode), budget_(budget),
      arena_(arena), flat_(flat), oracle_(oracle) {
  if (arena_ != nullptr) arena_->begin_message(flat_);
  if (mode_ == RoutingMode::kLocal) reached_insert(source_);
}

bool ProbeContext::reached_contains(VertexId v) const {
  if (arena_ == nullptr) return reached_.contains(v);
  return flat_ != nullptr ? arena_->reached_stamps_.live(v) : arena_->reached_keys_.contains(v);
}

void ProbeContext::reached_insert(VertexId v) {
  if (arena_ == nullptr) {
    reached_.insert(v);  // analyze:allow-hot-alloc(hash backend: grows with what a one-off context reaches)
  } else if (flat_ != nullptr) {
    arena_->reached_stamps_.stamp(v);
  } else {
    arena_->reached_keys_.emplace(v, true);
  }
}

bool ProbeContext::is_reached(VertexId v) const {
  if (mode_ == RoutingMode::kOracle) return true;  // no restriction to track
  return reached_contains(v);
}

const std::uint32_t* ProbeContext::target_distances(VertexId target) const {
  if (oracle_ == nullptr) return nullptr;
  return oracle_->distances_to(target);
}

std::optional<std::uint64_t> ProbeContext::remaining_budget() const {
  if (!budget_) return std::nullopt;
  const std::uint64_t used = distinct_probes();
  return *budget_ > used ? *budget_ - used : 0;
}

namespace {

/// Adjacency accessors the shared probe bookkeeping is parameterized on:
/// array loads off the CSR snapshot (which also names dense edge ids for
/// the arena's flat arrays) on the flat path, virtual dispatch on the
/// implicit path. One bookkeeping body + two accessor structs = the
/// backends cannot drift.
struct FlatAccess {
  static constexpr bool kHasEdgeIds = true;
  const FlatAdjacency* flat;
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const { return flat->neighbor(v, i); }
  [[nodiscard]] std::uint32_t edge_id(VertexId v, int i) const { return flat->edge_id(v, i); }
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const { return flat->edge_key(v, i); }
};

struct VirtualAccess {
  static constexpr bool kHasEdgeIds = false;
  const Topology* graph;
  [[nodiscard]] VertexId neighbor(VertexId v, int i) const { return graph->neighbor(v, i); }
  [[nodiscard]] EdgeKey edge_key(VertexId v, int i) const { return graph->edge_key(v, i); }
};

}  // namespace

template <typename Access>
bool ProbeContext::arena_probe(const Access& access, VertexId v, int i) {
  // Dense backend: the memo is a flat per-edge array, live iff stamped with
  // this message's epoch. A hit touches one cache line and computes no edge
  // key; only a fresh probe asks the sampler.
  const std::uint32_t edge = access.edge_id(v, i);
  if (arena_->edge_stamps_.live(edge)) return arena_->edge_open_[edge] != 0;
  if (budget_ && distinct_probes_ >= *budget_) {
    throw ProbeBudgetExceeded("probe budget exhausted");  // analyze:allow-throw-safety(probe-budget censoring signal, caught per message by the engine)
  }
  const bool open = sampler_.is_open_indexed(edge, access.edge_key(v, i));
  arena_->edge_stamps_.stamp(edge);
  arena_->edge_open_[edge] = open ? 1 : 0;
  ++distinct_probes_;
  return open;
}

bool ProbeContext::memo_probe(EdgeKey key) {
  if (arena_ != nullptr) {
    bool known = false;
    if (arena_->memo_keys_.find(key, known)) return known;
  } else {
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
  }
  if (budget_ && distinct_probes_ >= *budget_) {
    throw ProbeBudgetExceeded("probe budget exhausted");  // analyze:allow-throw-safety(probe-budget censoring signal, caught per message by the engine)
  }
  const bool open = sampler_.is_open(key);
  if (arena_ != nullptr) {
    arena_->memo_keys_.emplace(key, open);
    if (arena_->log_discoveries_) {
      arena_->discovered_.push_back(key);  // analyze:allow-hot-alloc(per-worker discovery buffer: grows to one flush batch, then reused)
    }
  } else {
    memo_.emplace(key, open);  // analyze:allow-hot-alloc(hash backend: one insert per distinct edge of a one-off context)
  }
  ++distinct_probes_;
  return open;
}

template <typename Access>
bool ProbeContext::probe_with(const Access& access, VertexId v, int i) {
  const VertexId w = access.neighbor(v, i);
  if (mode_ == RoutingMode::kLocal && !reached_contains(v) && !reached_contains(w)) {
    // analyze:allow-throw-safety(locality contract violation is a programming error; surfaced via first_error)
    throw LocalityViolation("local probe of edge not incident to the reached set");
  }
  ++total_probes_;
  bool open;
  if constexpr (Access::kHasEdgeIds) {
    open = arena_ != nullptr ? arena_probe(access, v, i) : memo_probe(access.edge_key(v, i));
  } else {
    open = memo_probe(access.edge_key(v, i));
  }
  if (open && mode_ == RoutingMode::kLocal) {
    // An open edge incident to the reached set extends it.
    const bool v_reached = reached_contains(v);
    const bool w_reached = reached_contains(w);
    if (v_reached && !w_reached) reached_insert(w);
    if (w_reached && !v_reached) reached_insert(v);
  }
  return open;
}

bool ProbeContext::probe(VertexId v, int i) {
  if (flat_ != nullptr) return probe_with(FlatAccess{flat_}, v, i);
  return probe_with(VirtualAccess{&graph_}, v, i);
}

bool ProbeContext::probe_between(VertexId a, VertexId b) {
  const int i = flat_ != nullptr ? edge_index_of(*flat_, a, b) : edge_index_of(graph_, a, b);
  // analyze:allow-throw-safety(adjacency precondition guard; surfaced via first_error)
  if (i < 0) throw std::invalid_argument("probe_between: vertices are not adjacent");
  return probe(a, i);
}

}  // namespace faultroute
