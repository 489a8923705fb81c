// KeySlots suite: the pooled, epoch-cleared u64 -> u64 map behind the
// implicit leg's probe memo and reached set, HashMarks, the shared cache's
// stripes and simplify_walk. Held to std::unordered_map over many epochs of
// random operations, including the cases its stamps exist for: growth while
// slots of earlier epochs are still in the table, the keys 0 and ~0 (no key
// value is reserved as a free marker), and the u32 epoch wrap.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "graph/key_slots.hpp"
#include "random/splitmix64.hpp"

namespace faultroute {

/// The test-only seam KeySlots befriends: jumps the epoch counter to just
/// before the 2^32 wrap, which clear() alone would need ~4 billion calls to
/// reach.
struct KeySlotsTestPeer {
  template <typename Value>
  static void set_epoch(KeySlots<Value>& slots, std::uint32_t epoch) {
    slots.epoch_ = epoch;
  }
  template <typename Value>
  static std::size_t capacity(const KeySlots<Value>& slots) {
    return slots.slots_.size();
  }
};

namespace {

constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};

/// Checks every key of `universe` against the reference map.
void expect_same(const KeySlots<>& slots, const std::unordered_map<std::uint64_t, std::uint64_t>& ref,
                 const std::vector<std::uint64_t>& universe, int epoch) {
  ASSERT_EQ(slots.size(), ref.size()) << "epoch " << epoch;
  for (const std::uint64_t key : universe) {
    std::uint64_t value = 0;
    const auto it = ref.find(key);
    ASSERT_EQ(slots.find(key, value), it != ref.end()) << "epoch " << epoch << " key " << key;
    ASSERT_EQ(slots.contains(key), it != ref.end()) << "epoch " << epoch << " key " << key;
    if (it != ref.end()) {
      ASSERT_EQ(value, it->second) << "epoch " << epoch << " key " << key;
    }
  }
}

TEST(KeySlots, MatchesUnorderedMapOverManyEpochs) {
  // Epoch sizes vary from empty to a few thousand entries, so later epochs
  // grow the table while it still holds the stale slots of earlier, smaller
  // or larger, epochs. Keys come from a small universe (hits and repeats
  // are common) that includes 0 and ~0.
  SplitMix64 rng(2005);
  std::vector<std::uint64_t> universe = {0, kAllOnes, 1, kAllOnes - 1};
  for (int k = 0; k < 3000; ++k) universe.push_back(rng());
  KeySlots<> slots;
  for (int epoch = 0; epoch < 120; ++epoch) {
    slots.clear();
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    const std::uint64_t ops = rng() % (epoch % 7 == 0 ? 6000 : 300);
    for (std::uint64_t op = 0; op < ops; ++op) {
      const std::uint64_t key = universe[rng() % universe.size()];
      const std::uint64_t value = rng();
      if (rng() % 2 == 0) {
        ASSERT_EQ(slots.emplace(key, value), ref.emplace(key, value).second);
      } else {
        slots.assign(key, value);
        ref[key] = value;
      }
    }
    expect_same(slots, ref, universe, epoch);
  }
}

TEST(KeySlots, GrowthDropsStaleSlotsAndKeepsLiveOnes) {
  KeySlots<> slots;
  for (std::uint64_t k = 0; k < 100; ++k) slots.emplace(k, k + 1);
  slots.clear();
  // The fresh epoch starts empty over a table full of stale slots; growing
  // it rehashes only the live entries.
  const std::size_t before = KeySlotsTestPeer::capacity(slots);
  for (std::uint64_t k = 1000; k < 1000 + before; ++k) slots.emplace(k, k);
  EXPECT_GT(KeySlotsTestPeer::capacity(slots), before);
  EXPECT_EQ(slots.size(), before);
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_FALSE(slots.contains(k)) << k;
  for (std::uint64_t k = 1000; k < 1000 + before; ++k) {
    std::uint64_t value = 0;
    ASSERT_TRUE(slots.find(k, value)) << k;
    EXPECT_EQ(value, k);
  }
}

TEST(KeySlots, ZeroAndAllOnesAreOrdinaryKeys) {
  KeySlots<> slots;
  EXPECT_FALSE(slots.contains(0));
  EXPECT_FALSE(slots.contains(kAllOnes));
  EXPECT_TRUE(slots.emplace(kAllOnes, 7));
  EXPECT_FALSE(slots.contains(0));
  EXPECT_TRUE(slots.emplace(0, 0));
  EXPECT_FALSE(slots.emplace(kAllOnes, 9));
  std::uint64_t value = 1;
  ASSERT_TRUE(slots.find(0, value));
  EXPECT_EQ(value, 0u);
  ASSERT_TRUE(slots.find(kAllOnes, value));
  EXPECT_EQ(value, 7u);
  EXPECT_EQ(slots.size(), 2u);
  slots.clear();
  EXPECT_FALSE(slots.contains(0));
  EXPECT_FALSE(slots.contains(kAllOnes));
}

TEST(KeySlots, WrapLeavesNoPreWrapEntryPresent) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  KeySlots<> slots;
  slots.emplace(0, 1);  // epoch 1
  KeySlotsTestPeer::set_epoch(slots, kMax - 1);
  slots.clear();  // the last epoch before the wrap
  EXPECT_FALSE(slots.contains(0));
  slots.emplace(kAllOnes, 2);
  slots.emplace(5, 3);
  EXPECT_TRUE(slots.contains(kAllOnes));
  slots.clear();  // wraps
  // Key 0 carries the epoch the counter restarts at, ~0 and 5 the last
  // pre-wrap epoch: none may read present, and the table must work on.
  for (const std::uint64_t key : {std::uint64_t{0}, kAllOnes, std::uint64_t{5}}) {
    EXPECT_FALSE(slots.contains(key)) << key;
  }
  EXPECT_EQ(slots.size(), 0u);
  EXPECT_TRUE(slots.emplace(5, 4));
  std::uint64_t value = 0;
  ASSERT_TRUE(slots.find(5, value));
  EXPECT_EQ(value, 4u);
  slots.clear();
  EXPECT_FALSE(slots.contains(5));
}

}  // namespace
}  // namespace faultroute
