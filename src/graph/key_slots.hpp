#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "random/splitmix64.hpp"

namespace faultroute {

/// Pooled map from u64 keys to `Value`s (u64 by default) for scratch keyed
/// by ids too sparse to index densely: the edge keys and vertex ids of
/// implicit graphs, whose id space cannot be materialized. A narrow Value
/// (bool for sets and bit maps) makes a slot 16 bytes instead of 24. Open
/// addressing with linear probing over a power-of-two table kept at most
/// three-quarters full (half full right after it grows). Occupancy lives in a per-slot
/// epoch stamp, as in EpochStamps: a slot holds an entry only while its
/// stamp equals the table's epoch, so clear() is one integer increment and
/// steady-state use allocates nothing once the table fits the largest
/// working set. Because occupancy is not encoded in the key, every u64 is a
/// legal key. There is no erase: within an epoch entries only accumulate,
/// which keeps every probe chain unbroken. Not thread-safe.
template <typename Value = std::uint64_t>
class KeySlots {
 public:
  /// Empties the table in O(1); capacity persists. On the (once per ~4
  /// billion clears) epoch wrap, stamps are zeroed so entries from before
  /// the wrap can never read as present after it.
  void clear() {
    if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
      for (Slot& slot : slots_) slot.stamp = 0;
      epoch_ = 0;
    }
    ++epoch_;
    size_ = 0;
  }

  /// Grows the table, if needed, so that `n` entries fit without a rehash.
  void reserve(std::size_t n) {
    if (4 * n > 3 * slots_.size()) grow(n);
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Looks `key` up; on a hit stores its value in `value`.
  [[nodiscard]] bool find(std::uint64_t key, Value& value) const {
    if (size_ == 0) return false;
    const Slot& slot = slots_[locate(key)];
    if (slot.stamp != epoch_) return false;
    value = slot.value;
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    return size_ != 0 && slots_[locate(key)].stamp == epoch_;
  }

  /// Inserts key -> value; returns false (and keeps the old value) if `key`
  /// is present.
  bool emplace(std::uint64_t key, Value value) {
    reserve(size_ + 1);
    Slot& slot = slots_[locate(key)];
    if (slot.stamp == epoch_) return false;
    slot = {key, epoch_, value};
    ++size_;
    return true;
  }

  /// Inserts key -> value, overwriting the value if `key` is present.
  void assign(std::uint64_t key, Value value) {
    reserve(size_ + 1);
    Slot& slot = slots_[locate(key)];
    if (slot.stamp != epoch_) ++size_;
    slot = {key, epoch_, value};
  }

 private:
  /// Test-only access to the epoch counter; defined by the test suite alone.
  friend struct KeySlotsTestPeer;

  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t stamp = 0;  // the entry is present iff stamp == epoch_
    Value value{};
  };

  /// The slot holding `key`, or the free slot that ends its probe chain.
  /// Requires a non-empty table with a free slot.
  [[nodiscard]] std::size_t locate(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t pos = mix64(key) & mask;; pos = (pos + 1) & mask) {
      const Slot& slot = slots_[pos];
      if (slot.stamp != epoch_ || slot.key == key) return pos;
    }
  }

  /// Rehashes the present entries into a table of at least 2n slots; stale
  /// slots of earlier epochs are dropped. Zero stamps are free in any epoch,
  /// because the epoch is never 0 between calls.
  void grow(std::size_t n) {
    std::vector<Slot> old(std::max<std::size_t>(16, std::bit_ceil(2 * n)));  // analyze:allow-hot-alloc(doubling growth of pooled key slots: O(log entries) times per table)
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.stamp == epoch_) slots_[locate(slot.key)] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 1;
};

}  // namespace faultroute
