#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace faultroute {

/// Grow-only, wrap-safe slot liveness for pooled scratch: slot i is live
/// only while its stamp equals the current epoch, so invalidating every
/// slot between searches (or messages, or blocks) is one integer increment
/// — never a memset or an allocation. Owners keep their slot values in
/// parallel arrays and read them only for live slots; DenseMarks, both
/// ProbeArena tables and the frontier executor's block memo are built on
/// it. Not thread-safe: one owner, one thread.
class EpochStamps {
 public:
  /// Sizes for `n` slots (grow-only) and opens a fresh epoch. On the (once
  /// per ~4 billion epochs) wrap, stamps are zeroed so slots stamped before
  /// the wrap can never read as live after it.
  void begin(std::uint64_t n) {
    if (stamp_.size() < n) {
      stamp_.resize(n, 0);  // analyze:allow-hot-alloc(grow-only pooled scratch warm-up)
    }
    if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 0;
    }
    ++epoch_;
  }

  [[nodiscard]] bool live(std::uint64_t i) const { return stamp_[i] == epoch_; }
  void stamp(std::uint64_t i) { stamp_[i] = epoch_; }

 private:
  /// Test-only access to the epoch counter (the wrap is otherwise ~4
  /// billion begin() calls away); defined by the test suite alone.
  friend struct EpochStampsTestPeer;

  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

}  // namespace faultroute
