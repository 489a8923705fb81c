#include "obs/phase_profiler.hpp"

#include <algorithm>
#include <atomic>

namespace faultroute::obs {

namespace {

std::atomic<std::uint64_t> next_instance{1};

struct TlsStateCache {
  std::uint64_t instance = 0;
  void* state = nullptr;
};
thread_local TlsStateCache tls_state_cache;

}  // namespace

PhaseProfiler::PhaseProfiler()
    : epoch_(std::chrono::steady_clock::now()),
      instance_(next_instance.fetch_add(1, std::memory_order_relaxed)) {}

PhaseProfiler::~PhaseProfiler() = default;

double PhaseProfiler::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

PhaseProfiler::ThreadState& PhaseProfiler::state_for_current_thread() {
  if (tls_state_cache.instance == instance_) {
    return *static_cast<ThreadState*>(tls_state_cache.state);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = states_[std::this_thread::get_id()];
  if (!slot) {
    // analyze:allow-hot-alloc(once per thread; later calls hit the thread-local cache above)
    slot = std::make_unique<ThreadState>();
    slot->track = next_track_++;
    slot->label = "thread-" + std::to_string(slot->track);
  }
  tls_state_cache = {instance_, slot.get()};
  return *slot;
}

void PhaseProfiler::label_current_thread(std::string_view name) {
  ThreadState& state = state_for_current_thread();
  const std::lock_guard<std::mutex> lock(mutex_);  // tracks() reads labels
  state.label = std::string(name);
}

PhaseProfiler::Scope::Scope(PhaseProfiler* profiler, std::string_view name)
    : profiler_(profiler) {
  if (profiler_ == nullptr) return;
  ThreadState& state = profiler_->state_for_current_thread();
  // analyze:allow-hot-alloc(span stack bounded by phase nesting depth; phases wrap batches, not messages)
  state.open.emplace_back(std::string(name), profiler_->now_us());
}

PhaseProfiler::Scope::~Scope() {
  if (profiler_ != nullptr) profiler_->close_scope();
}

void PhaseProfiler::close_scope() {
  const double end = now_us();
  ThreadState& state = state_for_current_thread();
  if (state.open.empty()) return;  // unbalanced close; drop rather than crash
  Span span;
  span.track = state.track;
  span.start_us = state.open.back().second;
  span.dur_us = end - span.start_us;
  for (const auto& [name, start] : state.open) {
    if (!span.path.empty()) span.path += '/';
    span.path += name;
  }
  state.open.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<PhaseProfiler::Span> PhaseProfiler::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<PhaseProfiler::PhaseStat> PhaseProfiler::aggregate() const {
  std::map<std::string, PhaseStat> by_path;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& span : spans_) {
      PhaseStat& stat = by_path[span.path];
      stat.path = span.path;
      ++stat.count;
      stat.total_ms += span.dur_us / 1000.0;
    }
  }
  std::vector<PhaseStat> stats;
  stats.reserve(by_path.size());
  for (auto& [path, stat] : by_path) stats.push_back(std::move(stat));
  return stats;
}

std::vector<PhaseProfiler::Track> PhaseProfiler::tracks() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Track> tracks;
  tracks.reserve(states_.size());
  for (const auto& [thread, state] : states_) {
    tracks.push_back({state->track, state->label});
  }
  std::sort(tracks.begin(), tracks.end(),
            [](const Track& a, const Track& b) { return a.id < b.id; });
  return tracks;
}

}  // namespace faultroute::obs
