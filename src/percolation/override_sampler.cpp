#include "percolation/override_sampler.hpp"

#include <queue>
#include <unordered_map>
#include <unordered_set>

namespace faultroute {

std::vector<EdgeKey> edges_within_ball(const Topology& graph, VertexId center,
                                       int radius) {
  std::vector<EdgeKey> keys;
  std::unordered_set<EdgeKey> seen;
  std::unordered_map<VertexId, int> dist;
  std::queue<VertexId> queue;
  dist.emplace(center, 0);
  queue.push(center);
  while (!queue.empty()) {
    const VertexId x = queue.front();
    queue.pop();
    const int dx = dist.at(x);
    const int deg = graph.degree(x);
    for (int i = 0; i < deg; ++i) {
      const EdgeKey key = graph.edge_key(x, i);
      if (seen.insert(key).second) keys.push_back(key);
      const VertexId y = graph.neighbor(x, i);
      if (dx + 1 <= radius && !dist.contains(y)) {
        dist.emplace(y, dx + 1);
        queue.push(y);
      }
    }
  }
  return keys;
}

std::vector<EdgeKey> incident_cut(const Topology& graph, VertexId v) {
  return incident_edge_keys(graph, v);
}

}  // namespace faultroute
