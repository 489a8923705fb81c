#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

namespace faultroute {

/// Disjoint-set forest with union-by-size and path halving.
/// Amortised near-constant operations; used to materialise percolation
/// clusters of finite graphs.
class UnionFind {
 public:
  /// Memory cost per element: one parent and one size word.
  static constexpr std::uint64_t kBytesPerElement = 2 * sizeof(std::uint64_t);

  explicit UnionFind(std::uint64_t n) : parent_(n), size_(n, 1), components_(n) {
    std::iota(parent_.begin(), parent_.end(), std::uint64_t{0});
  }

  [[nodiscard]] std::uint64_t find(std::uint64_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// Merges the sets of a and b; returns true if they were distinct.
  bool unite(std::uint64_t a, std::uint64_t b) {
    std::uint64_t ra = find(a);
    std::uint64_t rb = find(b);
    if (ra == rb) return false;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    --components_;
    return true;
  }

  [[nodiscard]] bool same(std::uint64_t a, std::uint64_t b) { return find(a) == find(b); }

  /// Size of the set containing x.
  [[nodiscard]] std::uint64_t size_of(std::uint64_t x) { return size_[find(x)]; }

  /// Number of disjoint sets.
  [[nodiscard]] std::uint64_t num_components() const { return components_; }

  [[nodiscard]] std::uint64_t num_elements() const { return parent_.size(); }

 private:
  std::vector<std::uint64_t> parent_;
  std::vector<std::uint64_t> size_;
  std::uint64_t components_;
};

}  // namespace faultroute
