#include "graph/channel_index.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "obs/counter_registry.hpp"

namespace faultroute {

ChannelIndex::ChannelIndex(const Topology& graph) : graph_(&graph) {
  // Global counter, like graph.flat_adjacency.materializations: the index
  // is O(vertices) to build, so a run that should pay per probe (implicit
  // adjacency, a mapped snapshot) pins this at 0.
  obs::global_count("graph.channel_index.builds");
  const std::uint64_t n = graph.num_vertices();
  offsets_.resize(n + 1);
  std::uint64_t total = 0;
  for (VertexId v = 0; v < n; ++v) {
    offsets_[v] = total;
    total += static_cast<std::uint64_t>(graph.degree(v));
  }
  offsets_[n] = total;
  if (total > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("ChannelIndex: " + graph.name() + " has " +
                            std::to_string(total) +
                            " directed channels; ids are 32-bit (max 4294967295)");
  }
  num_channels_ = static_cast<std::uint32_t>(total);
}

VertexId ChannelIndex::tail(std::uint32_t channel) const {
  // offsets_ is strictly increasing between distinct offsets (zero-degree
  // vertices repeat a value, but then own no channel), so the tail is the
  // last vertex whose offset is <= channel.
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(),
                                   static_cast<std::uint64_t>(channel));
  return static_cast<VertexId>(it - offsets_.begin()) - 1;
}

int ChannelIndex::slot(std::uint32_t channel) const {
  return static_cast<int>(channel - offsets_[tail(channel)]);
}

VertexId ChannelIndex::head(std::uint32_t channel) const {
  const VertexId v = tail(channel);
  return graph_->neighbor(v, static_cast<int>(channel - offsets_[v]));
}

EdgeKey ChannelIndex::edge_of(std::uint32_t channel) const {
  const VertexId v = tail(channel);
  return graph_->edge_key(v, static_cast<int>(channel - offsets_[v]));
}

void ChannelIndex::build_edge_ids() const {
  // One linear scan over (vertex, slot) pairs — i.e. over channels in
  // ascending id order. The hash map exists only during this build; the
  // steady-state structure is the flat edge_ids_ array.
  edge_ids_.resize(num_channels_);  // analyze:allow-hot-alloc(one-shot lazy index build, memoised per topology)
  // lint:allow-hash(one-shot build-time scratch; steady state is the flat array)
  std::unordered_map<EdgeKey, std::uint32_t> first_seen;
  first_seen.reserve(num_channels_ / 2 + 1);  // analyze:allow-hot-alloc(same one-shot build)
  std::uint32_t next_id = 0;
  std::uint32_t channel = 0;
  const std::uint64_t n = graph_->num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    const int deg = graph_->degree(v);
    for (int i = 0; i < deg; ++i, ++channel) {
      // analyze:allow-hot-alloc(same one-shot build)
      const auto [it, inserted] = first_seen.emplace(graph_->edge_key(v, i), next_id);
      if (inserted) ++next_id;
      edge_ids_[channel] = it->second;
    }
  }
  num_edge_ids_ = next_id;
}

std::uint32_t ChannelIndex::reverse(std::uint32_t channel) const {
  const VertexId v = tail(channel);
  const int i = static_cast<int>(channel - offsets_[v]);
  const VertexId w = graph_->neighbor(v, i);
  const EdgeKey key = graph_->edge_key(v, i);
  const int deg = graph_->degree(w);
  for (int j = 0; j < deg; ++j) {
    if (graph_->neighbor(w, j) == v && graph_->edge_key(w, j) == key) {
      return channel_of(w, j);
    }
  }
  // analyze:allow-throw-safety(edge_key symmetry contract violation is a programming error in the topology)
  throw std::logic_error("ChannelIndex::reverse: no matching reverse slot for edge key " +
                         std::to_string(key) + " — edge_key symmetry contract violated by " +
                         graph_->name());
}

}  // namespace faultroute
