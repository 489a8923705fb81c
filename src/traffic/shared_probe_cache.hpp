#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/flat_adjacency.hpp"
#include "graph/key_slots.hpp"
#include "graph/topology.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/splitmix64.hpp"

namespace faultroute {

/// A concurrency-safe memoising layer over an EdgeSampler, shared by every
/// message of a traffic batch.
///
/// Single-pair routing pays the full discovery cost of its environment; a
/// batch of concurrent messages probing one shared environment should not.
/// The cache records the first time any message probes an edge, so the
/// *environment* cost of a batch is the number of distinct edges probed by
/// the union of all messages — per-message cost amortises toward zero as
/// the batch grows and working sets overlap. Each adjacency leg of the
/// routing phase keys the record by what it already holds:
///
///  * **edge-id addressed** (constructed over a FlatAdjacency): one atomic
///    byte per undirected edge of the snapshot, indexed by its dense edge
///    ids, holding a tri-state unknown / closed / open. A probe is a single
///    relaxed array load — no mutex, no hashing, no node allocation.
///    Unknown slots are resolved by querying the base sampler *outside* any
///    critical section and publishing the answer with a CAS.
///  * **key addressed** (constructed over the Topology alone): a lock-striped
///    set of the edge keys discovered so far, so its memory grows with the
///    edges the batch probes and nothing is sized from the graph — a
///    2^30-vertex hypercube costs nothing until it is probed. Answers come
///    straight from the (pure) base sampler; the set is the record of
///    discovery. The routing phase's implicit leg does not probe through
///    it: its workers ask the base sampler and hand the keys of their memo
///    misses to record_discoveries() in batches, one lock per stripe per
///    batch, so no lock sits on the per-probe path.
///
/// Correctness under threads: the underlying sampler is a deterministic
/// pure function of the edge key, so two threads racing to resolve the same
/// edge compute the same value — whichever CAS (or set insertion) wins
/// records it, the loser's answer is byte-identical, and every quantity
/// derived from probe *answers* is bit-identical across thread counts. So
/// is `unique_edges()`: the set of recorded edges is the union of the edges
/// the batch probes, never dependent on the interleaving or on how the keys
/// were batched (a miss is counted only by the thread that inserts it).
/// There is deliberately no hit counter: one shared atomic incremented on
/// every lookup is contended by every worker, and the routing phase derives
/// hits exactly as distinct probes − misses (see TrafficResult::cache_hits).
class SharedProbeCache final : public EdgeSampler {
 public:
  /// Key-addressed cache. `base` must outlive the cache and be thread-safe
  /// under const access (all library samplers are; they are pure functions
  /// of the edge key). `graph` is the topology whose edges will be probed;
  /// nothing is sized or built from it.
  SharedProbeCache(const EdgeSampler& base, const Topology& graph);

  /// Edge-id-addressed cache over `flat`'s dense undirected-edge ids (a
  /// materialized CSR or a mapped snapshot view, which must outlive the
  /// cache). Costs one byte per edge of the snapshot, allocated up front.
  SharedProbeCache(const EdgeSampler& base, const FlatAdjacency& flat);

  /// Returns the answer for `key`, recording its discovery on first touch.
  /// On an edge-id-addressed cache this resolves `key` to its dense id by
  /// scanning one endpoint's snapshot row — O(degree), for callers that
  /// hold only a key; the flat routing hot path goes through
  /// is_open_indexed.
  [[nodiscard]] bool is_open(EdgeKey key) const override;

  /// The O(1) entry point of an edge-id-addressed cache: one atomic array
  /// load on a hit. `edge_id` must be `key`'s id in the constructor
  /// snapshot (FlatAdjacency::edge_id; the dense ProbeContext backend
  /// passes exactly that). A key-addressed cache ignores the id.
  [[nodiscard]] bool is_open_indexed(std::uint32_t edge_id, EdgeKey key) const override;

  /// Records the discovery of every key in `keys` (duplicates allowed) on a
  /// key-addressed cache, taking each stripe's lock once for all of its
  /// keys; the answers are not needed, so the base sampler is not asked.
  /// Reorders `keys` (grouped by stripe). Thread-safe against concurrent
  /// record_discoveries() and is_open() calls.
  void record_discoveries(std::span<EdgeKey> keys) const;

  [[nodiscard]] double survival_probability() const override {
    return base_.survival_probability();
  }

  /// Number of distinct edges whose state has been discovered — the batch's
  /// total environment-discovery cost, and the cache's exact miss count.
  /// Deterministic across thread counts.
  [[nodiscard]] std::uint64_t unique_edges() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint8_t kUnknown = 0;
  static constexpr std::uint8_t kClosed = 1;
  static constexpr std::uint8_t kOpen = 2;
  static constexpr unsigned kStripeBits = 6;
  static constexpr std::size_t kStripes = std::size_t{1} << kStripeBits;

  /// One lock stripe of the key-addressed record: a set of keys (KeySlots,
  /// 16 bytes per slot; values unused), so a first touch costs one cache line, not a node
  /// allocation. Cache-line aligned so two workers locking neighbouring
  /// stripes do not share one.
  struct alignas(64) Stripe {
    std::mutex mutex;
    KeySlots<bool> keys;
  };

  /// The stripe `key` belongs to: the top bits of its hash (KeySlots
  /// places it by the low ones).
  [[nodiscard]] static std::size_t stripe_of(EdgeKey key) {
    return static_cast<std::size_t>(mix64(key) >> (64 - kStripeBits));
  }

  const EdgeSampler& base_;
  /// Edge-id addressed (flat_ != nullptr): the snapshot and a tri-state per
  /// undirected edge id; unique_ptr because atomics are neither copyable
  /// nor movable (std::vector would demand both).
  const FlatAdjacency* flat_ = nullptr;
  std::unique_ptr<std::atomic<std::uint8_t>[]> states_;
  /// Key addressed (flat_ == nullptr): kStripes stripes.
  std::unique_ptr<Stripe[]> stripes_;
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace faultroute
