#include "traffic/shared_probe_cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "random/splitmix64.hpp"

namespace faultroute {

SharedProbeCache::SharedProbeCache(const EdgeSampler& base, const Topology& /*graph*/)
    : base_(base), stripes_(new Stripe[std::size_t{1} << kStripeBits]) {}

SharedProbeCache::SharedProbeCache(const EdgeSampler& base, const FlatAdjacency& flat)
    : base_(base),
      flat_(&flat),
      states_(new std::atomic<std::uint8_t>[flat.num_edge_ids()]) {
  // Value-initialise to kUnknown; new[] of atomics leaves them
  // default-initialised (indeterminate) otherwise.
  for (std::uint32_t e = 0; e < flat.num_edge_ids(); ++e) {
    states_[e].store(kUnknown, std::memory_order_relaxed);
  }
}

bool SharedProbeCache::is_open_indexed(std::uint32_t edge_id, EdgeKey key) const {
  if (flat_ == nullptr) return is_open(key);
  std::atomic<std::uint8_t>& slot = states_[edge_id];
  const std::uint8_t state = slot.load(std::memory_order_relaxed);
  if (state != kUnknown) return state == kOpen;
  // Resolve outside any critical section: the sampler is pure, so a racing
  // double-compute yields the same value and the CAS loser's work is merely
  // wasted, never wrong. Relaxed ordering suffices — the published byte is
  // the entire message, a pure function of (sampler, key).
  const bool open = base_.is_open(key);
  std::uint8_t expected = kUnknown;
  if (slot.compare_exchange_strong(expected, open ? kOpen : kClosed,
                                   std::memory_order_relaxed,
                                   std::memory_order_relaxed)) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return open;
  }
  // Lost the publication race: the edge was already discovered, so this
  // probe is not a miss — counting it would count one edge twice.
  return expected == kOpen;
}

bool SharedProbeCache::record(Stripe& stripe, EdgeKey key, std::uint64_t hash) {
  if (key == kNoKey) {
    const bool fresh = !stripe.holds_no_key;
    stripe.holds_no_key = true;
    return fresh;
  }
  if (2 * (stripe.size + 1) > stripe.slots.size()) {
    std::vector<EdgeKey> old(std::max<std::size_t>(64, 2 * stripe.slots.size()), kNoKey);  // analyze:allow-hot-alloc(doubling growth of the discovery record: O(log edges) times per stripe)
    old.swap(stripe.slots);
    const std::size_t mask = stripe.slots.size() - 1;
    for (const EdgeKey kept : old) {
      if (kept == kNoKey) continue;
      std::size_t pos = mix64(kept) & mask;
      while (stripe.slots[pos] != kNoKey) pos = (pos + 1) & mask;
      stripe.slots[pos] = kept;
    }
  }
  const std::size_t mask = stripe.slots.size() - 1;
  for (std::size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    if (stripe.slots[pos] == key) return false;
    if (stripe.slots[pos] == kNoKey) {
      stripe.slots[pos] = key;
      ++stripe.size;
      return true;
    }
  }
}

bool SharedProbeCache::is_open(EdgeKey key) const {
  if (flat_ == nullptr) {
    // Key addressed: the answer is the base sampler's (pure, so no lock is
    // needed to compute it); the stripe lock guards only the record of
    // discovery. The top hash bits pick the stripe, the low ones the slot.
    const bool open = base_.is_open(key);
    const std::uint64_t hash = mix64(key);
    Stripe& stripe = stripes_[hash >> (64 - kStripeBits)];
    bool fresh = false;
    {
      const std::lock_guard<std::mutex> lock(stripe.mutex);
      fresh = record(stripe, key, hash);
    }
    if (fresh) misses_.fetch_add(1, std::memory_order_relaxed);
    return open;
  }
  // Key-only callers of an edge-id-addressed cache (path verification
  // helpers, tests) pay an O(degree) scan of one endpoint's snapshot row to
  // recover the dense id.
  const VertexId a = flat_->graph().endpoints(key).a;
  for (std::uint64_t pos = flat_->row_begin(a); pos < flat_->row_end(a); ++pos) {
    if (flat_->edge_key_at(pos) == key) return is_open_indexed(flat_->edge_id_at(pos), key);
  }
  // analyze:allow-throw-safety(edge-key precondition guard; surfaced via first_error)
  throw std::invalid_argument("SharedProbeCache::is_open: key " + std::to_string(key) +
                              " is not an edge key of " + flat_->graph().name());
}

}  // namespace faultroute
