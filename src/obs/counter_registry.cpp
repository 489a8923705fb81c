#include "obs/counter_registry.hpp"

#include <algorithm>
#include <stdexcept>

namespace faultroute::obs {

namespace {

/// Monotone instance ids let the thread-local slab cache detect that a
/// cached pointer belongs to a dead (or different) registry without ever
/// dereferencing it — addresses can be reused, instance numbers cannot.
std::atomic<std::uint64_t> next_instance{1};

struct TlsSlabCache {
  std::uint64_t instance = 0;
  void* slab = nullptr;
};
thread_local TlsSlabCache tls_slab_cache;

}  // namespace

CounterRegistry::CounterRegistry(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      instance_(next_instance.fetch_add(1, std::memory_order_relaxed)) {}

CounterRegistry::~CounterRegistry() = default;

// analyze:allow-hot-alloc(registration appends once per distinct counter name; steady-state add/record never calls id) analyze:allow-throw-safety(kind mismatch and capacity exhaustion are programming errors; surfaced via first_error)
CounterRegistry::CounterId CounterRegistry::id(std::string_view name, MergeKind kind) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(name);
  if (it != index_.end()) {
    if (kinds_[it->second] != kind) {
      throw std::invalid_argument("CounterRegistry: counter '" + std::string(name) +
                                  "' already registered with a different merge kind");
    }
    return it->second;
  }
  if (names_.size() >= capacity_) {
    throw std::length_error("CounterRegistry: capacity " + std::to_string(capacity_) +
                            " exhausted registering '" + std::string(name) + "'");
  }
  const auto counter = static_cast<CounterId>(names_.size());
  names_.emplace_back(name);
  kinds_.push_back(kind);
  index_.emplace(names_.back(), counter);
  return counter;
}

std::size_t CounterRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return names_.size();
}

CounterRegistry::Slab& CounterRegistry::slab_for_current_thread() {
  if (tls_slab_cache.instance == instance_) {
    return *static_cast<Slab*>(tls_slab_cache.slab);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = slabs_[std::this_thread::get_id()];
  // analyze:allow-hot-alloc(once per thread; later calls hit the thread-local cache above)
  if (!slot) slot = std::make_unique<Slab>(capacity_);
  tls_slab_cache = {instance_, slot.get()};
  return *slot;
}

void CounterRegistry::add(CounterId c, std::uint64_t delta) {
  Cell& cell = slab_for_current_thread().cells[c];
  // Plain-store idiom: the slot is thread-owned, so load+store (no RMW) is
  // exact; relaxed atomics only make the concurrent snapshot reads defined.
  cell.value.store(cell.value.load(std::memory_order_relaxed) + delta,
                   std::memory_order_relaxed);
}

void CounterRegistry::record_max(CounterId c, std::uint64_t value) {
  Cell& cell = slab_for_current_thread().cells[c];
  if (value > cell.value.load(std::memory_order_relaxed)) {
    cell.value.store(value, std::memory_order_relaxed);
  }
}

std::uint64_t CounterRegistry::value(CounterId c) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (c >= names_.size()) throw std::out_of_range("CounterRegistry: bad counter id");
  std::uint64_t merged = 0;
  for (const auto& [thread, slab] : slabs_) {
    const std::uint64_t v = slab->cells[c].value.load(std::memory_order_relaxed);
    merged = kinds_[c] == MergeKind::kSum ? merged + v : std::max(merged, v);
  }
  return merged;
}

std::vector<CounterRegistry::Entry> CounterRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Entry> entries;
  entries.reserve(names_.size());
  for (const auto& [name, counter] : index_) {  // std::map: already name-sorted
    std::uint64_t merged = 0;
    for (const auto& [thread, slab] : slabs_) {
      const std::uint64_t v = slab->cells[counter].value.load(std::memory_order_relaxed);
      merged = kinds_[counter] == MergeKind::kSum ? merged + v : std::max(merged, v);
    }
    entries.push_back({name, kinds_[counter], merged});
  }
  return entries;
}

CounterRegistry& global_registry() {
  static CounterRegistry registry;
  return registry;
}

void global_count(std::string_view name, std::uint64_t delta) {
  CounterRegistry& registry = global_registry();
  registry.add(registry.id(name), delta);
}

}  // namespace faultroute::obs
