#include "graph/topology.hpp"

#include "graph/bfs.hpp"
#include "graph/channel_index.hpp"
#include "graph/flat_adjacency.hpp"

namespace faultroute {

namespace {

/// Dense marks are worth allocating only when the vertex-indexed arrays fit
/// comfortably in memory; gigantic implicit families (which override the
/// metric anyway) keep hash marks.
constexpr std::uint64_t kDenseBfsBudgetVertices = 1ull << 26;

/// The default metric's own pooled search state, distinct from the
/// percolation analyses' instance: those hold live epochs across calls that
/// may re-enter distance()/shortest_path(), and sharing one epoch counter
/// would silently invalidate their marks mid-sweep.
DenseSearchState& metric_search() {
  static thread_local DenseSearchState search;
  return search;
}

/// The fault-free BFS from `u` over every edge: dense pooled marks within
/// the budget, hash marks past it. Same traversal either way, so the two
/// tiers return identical distances and paths.
template <typename Visit>
void metric_bfs(const Topology& graph, VertexId u, Visit&& visit) {
  const TopologyRows rows{&graph};
  const auto every_edge = [](const TopologyRows::Row& /*row*/, int /*i*/) { return true; };
  if (graph.num_vertices() <= kDenseBfsBudgetVertices) {
    DenseSearchState& search = metric_search();
    breadth_first_search(rows, search.marks, search.queue, u, every_edge, visit);
    return;
  }
  HashMarks marks;
  std::vector<VertexId> queue;
  breadth_first_search(rows, marks, queue, u, every_edge, visit);
}

}  // namespace

Topology::Topology() = default;
Topology::Topology(const Topology&) {}
Topology::~Topology() = default;

const ChannelIndex& Topology::channel_index() const {
  std::call_once(channel_index_once_,
                 [this] { channel_index_ = std::make_unique<ChannelIndex>(*this); });
  return *channel_index_;
}

const FlatAdjacency& Topology::flat_adjacency() const {
  std::call_once(flat_adjacency_once_,  // analyze:allow-hot-alloc(lazy CSR build, once per topology under call_once)
                 [this] { flat_adjacency_ = std::make_unique<FlatAdjacency>(*this); });
  return *flat_adjacency_;
}

// analyze:hot-root(dense BFS scratch path: metric fallback in router inner loops) analyze:allow-hot-alloc(dense tier runs on pooled thread-local marks; the hash tier is the documented past-budget fallback)
std::uint64_t Topology::distance(VertexId u, VertexId v) const {
  if (u == v) return 0;
  std::uint64_t dist = num_vertices();  // unreachable
  metric_bfs(*this, u, [&](const auto& /*marks*/, VertexId y, std::uint64_t depth) {
    if (y != v) return true;
    dist = depth;
    return false;
  });
  return dist;
}

// analyze:allow-hot-alloc(pooled dense marks plus result materialization; the hash tier is the documented past-budget fallback)
std::vector<VertexId> Topology::shortest_path(VertexId u, VertexId v) const {
  if (u == v) return {u};
  std::vector<VertexId> path;  // stays empty if v is unreachable
  metric_bfs(*this, u, [&](const auto& parent, VertexId y, std::uint64_t /*depth*/) {
    if (y != v) return true;
    path = path_from_parents(parent, v);
    return false;
  });
  return path;
}

std::string Topology::vertex_label(VertexId v) const { return std::to_string(v); }

int edge_index_of(const Topology& g, VertexId u, VertexId v) {
  const int deg = g.degree(u);
  for (int i = 0; i < deg; ++i) {
    if (g.neighbor(u, i) == v) return i;
  }
  return -1;
}

std::vector<EdgeKey> incident_edge_keys(const Topology& g, VertexId v) {
  const int deg = g.degree(v);
  std::vector<EdgeKey> keys;
  keys.reserve(static_cast<std::size_t>(deg));
  for (int i = 0; i < deg; ++i) keys.push_back(g.edge_key(v, i));
  return keys;
}

}  // namespace faultroute
