#pragma once

#include <cstdint>
#include <unordered_map>

#include "graph/topology.hpp"

namespace faultroute {

/// Decides which edges of a topology survive percolation.
///
/// The sampler is the random environment G_p: each canonical edge key is open
/// independently with probability p. Implementations must be *consistent* —
/// repeated queries of the same key return the same answer — so that a
/// routing algorithm probing an edge twice sees a fixed world, exactly as in
/// the paper's model.
class EdgeSampler {
 public:
  virtual ~EdgeSampler() = default;

  /// True iff the edge with canonical key `key` is open (survived).
  [[nodiscard]] virtual bool is_open(EdgeKey key) const = 0;

  /// Identical answer to is_open(key), with the edge additionally named by
  /// its dense undirected-edge id (FlatAdjacency::edge_id, equal to
  /// ChannelIndex::edge_id_of). Pure samplers
  /// ignore the id — the default forwards to is_open — but memoising layers
  /// (SharedProbeCache) override it to index a flat array instead of hashing
  /// the key. Callers that already hold the id (the dense ProbeContext
  /// backend) probe through this entry point; `edge_id` must belong to the
  /// same topology that produced `key`.
  [[nodiscard]] virtual bool is_open_indexed(std::uint32_t edge_id, EdgeKey key) const {
    (void)edge_id;
    return is_open(key);
  }

  /// The survival probability p this sampler realises (for reporting).
  [[nodiscard]] virtual double survival_probability() const = 0;
};

/// Lazy hash-based Bernoulli percolation: edge `key` is open iff
/// hash(seed, key) < p * 2^64.
///
/// O(1) time, zero memory, deterministic per (seed, p). This is the
/// substitution that lets us percolate graphs with 2^n vertices: the random
/// world exists implicitly and is only evaluated where the algorithm looks.
class HashEdgeSampler final : public EdgeSampler {
 public:
  HashEdgeSampler(double p, std::uint64_t seed);

  [[nodiscard]] bool is_open(EdgeKey key) const override;
  [[nodiscard]] double survival_probability() const override { return p_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  double p_;
  std::uint64_t seed_;
  std::uint64_t threshold_;  // p scaled to 2^64; UINT64_MAX+saturate for p>=1
  bool always_open_;
  bool always_closed_;
};

/// A sampler with explicitly pinned edges on top of a default state.
/// Test fixtures use it to build hand-crafted percolation worlds.
class ExplicitEdgeSampler final : public EdgeSampler {
 public:
  /// Edges default to `default_open`; individual keys can be pinned.
  explicit ExplicitEdgeSampler(bool default_open = false);

  void set(EdgeKey key, bool open) { states_[key] = open; }

  [[nodiscard]] bool is_open(EdgeKey key) const override;
  [[nodiscard]] double survival_probability() const override {
    return default_open_ ? 1.0 : 0.0;
  }

 private:
  bool default_open_;
  std::unordered_map<EdgeKey, bool> states_;
};

}  // namespace faultroute
