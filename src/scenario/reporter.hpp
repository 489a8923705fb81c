#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "obs/schemas.hpp"
#include "scenario/spec.hpp"

namespace faultroute::scenario {

/// Schema identifier stamped into every report so downstream tooling can
/// diff result sets across PRs. Defined in obs/schemas.hpp with the rest of
/// the schema registry; bump the version whenever a field is added, removed,
/// renamed, or its meaning/units change.
inline constexpr int kSchemaVersion = obs::schemas::kScenarioVersion;
inline constexpr const char* kSchemaName = obs::schemas::kScenario;

/// One cell of a scenario's cross-product: the aggregate traffic metrics of
/// one (topology, p, router, workload, trial) combination. Field meanings
/// and units match `TrafficResult` (times in discrete simulation steps,
/// loads in message traversals); strings are the registry specs verbatim.
struct CellResult {
  std::uint64_t cell = 0;  ///< flat row-major index (see runner.hpp)
  std::string topology;    ///< registry spec, e.g. "hypercube:10"
  std::string topology_name;
  std::uint64_t vertices = 0;
  double p = 0.0;
  std::string router;
  std::string workload;  ///< registry spec, e.g. "poisson:2.5"
  std::uint64_t trial = 0;
  std::uint64_t env_seed = 0;
  std::uint64_t workload_seed = 0;

  std::uint64_t messages = 0;
  std::uint64_t routed = 0;
  std::uint64_t failed_routing = 0;
  std::uint64_t censored = 0;
  std::uint64_t invalid_paths = 0;
  std::uint64_t delivered = 0;
  std::uint64_t stranded = 0;
  std::uint64_t total_distinct_probes = 0;
  std::uint64_t unique_edges_probed = 0;
  // SharedProbeCache hit/miss split (schema v3) — exact and deterministic;
  // see TrafficResult::cache_hits.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double probe_amortization = 0.0;
  std::uint64_t max_edge_load = 0;
  double mean_edge_load = 0.0;
  std::uint64_t edges_used = 0;
  std::uint64_t makespan = 0;
  double mean_queueing_delay = 0.0;
  std::uint64_t max_queueing_delay = 0;
  double mean_path_edges = 0.0;
  double throughput = 0.0;

  // Delivery-engine counters (schema v2): the event-driven simulator's work
  // and footprint — see TrafficResult and docs/ARCHITECTURE.md.
  std::uint64_t sim_steps = 0;
  std::uint64_t admission_events = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t peak_active_channels = 0;
  std::uint64_t channels = 0;
};

/// Sink for scenario results. The runner guarantees the call order
/// begin → report (once per cell, in ascending cell order) → end, from a
/// single thread, regardless of how many worker threads computed the cells —
/// implementations need no locking. Every emitted byte is a deterministic
/// function of the spec, so identical runs produce identical reports.
class Reporter {
 public:
  virtual ~Reporter() = default;
  virtual void begin(const ScenarioSpec& spec) = 0;
  virtual void report(const CellResult& cell) = 0;
  virtual void end() = 0;
};

/// JSON-lines: one header object (schema + the resolved spec), then one
/// object per cell. Machine-diffable and append-friendly.
class JsonLinesReporter final : public Reporter {
 public:
  /// `out` must outlive the reporter; nothing is written before begin().
  explicit JsonLinesReporter(std::ostream& out) : out_(out) {}
  void begin(const ScenarioSpec& spec) override;
  void report(const CellResult& cell) override;
  void end() override;

 private:
  std::ostream& out_;
  std::uint64_t cells_reported_ = 0;
};

/// RFC-4180-style CSV with a fixed column set; the schema name rides in the
/// first column of every row so a bare .csv file remains self-describing.
class CsvReporter final : public Reporter {
 public:
  explicit CsvReporter(std::ostream& out) : out_(out) {}
  void begin(const ScenarioSpec& spec) override;
  void report(const CellResult& cell) override;
  void end() override;

 private:
  std::ostream& out_;
  std::string scenario_name_;
};

/// Factory for the CLI: `format` is "jsonl" or "csv".
[[nodiscard]] std::unique_ptr<Reporter> make_reporter(const std::string& format,
                                                      std::ostream& out);

}  // namespace faultroute::scenario
