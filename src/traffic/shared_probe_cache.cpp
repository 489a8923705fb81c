#include "traffic/shared_probe_cache.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <string>

namespace faultroute {

SharedProbeCache::SharedProbeCache(const EdgeSampler& base, const Topology& /*graph*/)
    : base_(base), stripes_(new Stripe[kStripes]) {}

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

void SharedProbeCache::record_discoveries(std::span<EdgeKey> keys) const {
  assert(flat_ == nullptr);
  // Group the keys by stripe in place (one counting pass, then a swap
  // cycle per misplaced key), so each stripe is locked once.
  std::array<std::size_t, kStripes + 1> begin{};
  for (const EdgeKey key : keys) ++begin[stripe_of(key) + 1];
  for (std::size_t s = 0; s < kStripes; ++s) begin[s + 1] += begin[s];
  std::array<std::size_t, kStripes> next{};
  std::copy_n(begin.begin(), kStripes, next.begin());
  for (std::size_t s = 0; s < kStripes; ++s) {
    while (next[s] < begin[s + 1]) {
      const std::size_t home = stripe_of(keys[next[s]]);
      if (home == s) {
        ++next[s];
      } else {
        std::swap(keys[next[s]], keys[next[home]++]);
      }
    }
  }
  std::uint64_t fresh = 0;
  for (std::size_t s = 0; s < kStripes; ++s) {
    if (begin[s] == begin[s + 1]) continue;
    Stripe& stripe = stripes_[s];
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    for (std::size_t k = begin[s]; k < begin[s + 1]; ++k) {
      if (stripe.keys.emplace(keys[k], true)) ++fresh;
    }
  }
  if (fresh != 0) misses_.fetch_add(fresh, std::memory_order_relaxed);
}

bool SharedProbeCache::is_open(EdgeKey key) const {
  if (flat_ == nullptr) {
    // Key addressed: the answer is the base sampler's (pure, so no lock is
    // needed to compute it); the stripe lock guards only the record of
    // discovery.
    const bool open = base_.is_open(key);
    Stripe& stripe = stripes_[stripe_of(key)];
    bool fresh = false;
    {
      const std::lock_guard<std::mutex> lock(stripe.mutex);
      fresh = stripe.keys.emplace(key, true);
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
