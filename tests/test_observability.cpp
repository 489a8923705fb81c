// Observability subsystem: counter registry, phase profiler, delivery
// sampler, metrics/trace serialization — and the hard invariant that
// attaching any of it never changes a simulation result by a bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/routers/greedy_router.hpp"
#include "graph/hypercube.hpp"
#include "helpers/fresh_probe_reference.hpp"
#include "obs/build_info.hpp"
#include "obs/counter_registry.hpp"
#include "obs/delivery_sampler.hpp"
#include "obs/phase_profiler.hpp"
#include "obs/run_metrics.hpp"
#include "obs/schemas.hpp"
#include "percolation/edge_sampler.hpp"
#include "scenario/reporter.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace faultroute {
namespace {

using obs::CounterRegistry;
using obs::DeliverySampler;
using obs::MergeKind;
using obs::PhaseProfiler;
using obs::RunMetrics;

// ---------------------------------------------------------- CounterRegistry

TEST(CounterRegistry, SumsAreExactAcrossThreads) {
  CounterRegistry registry;
  const auto counter = registry.id("test.hits");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) registry.add(counter, 1);
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(registry.value(counter), kThreads * kPerThread);
}

TEST(CounterRegistry, MaxCountersMergeByMaximum) {
  CounterRegistry registry;
  const auto gauge = registry.id("test.peak", MergeKind::kMax);
  std::vector<std::thread> workers;
  for (std::uint64_t w = 1; w <= 4; ++w) {
    workers.emplace_back([&, w] {
      registry.record_max(gauge, 10 * w);
      registry.record_max(gauge, 5);  // lower value never overwrites
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(registry.value(gauge), 40u);
}

TEST(CounterRegistry, IdIsFindOrRegisterAndSnapshotIsSorted) {
  CounterRegistry registry;
  const auto b = registry.id("b.second");
  const auto a = registry.id("a.first");
  EXPECT_EQ(registry.id("b.second"), b);  // same name, same id
  EXPECT_NE(a, b);
  registry.add(a, 3);
  registry.add(b, 7);
  const auto entries = registry.snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "a.first");
  EXPECT_EQ(entries[0].value, 3u);
  EXPECT_EQ(entries[1].name, "b.second");
  EXPECT_EQ(entries[1].value, 7u);
}

TEST(CounterRegistry, FreshCounterReadsZero) {
  CounterRegistry registry;
  EXPECT_EQ(registry.value(registry.id("test.untouched")), 0u);
}

TEST(CounterRegistry, ThrowsAtCapacityAndOnKindMismatch) {
  CounterRegistry small(2);
  (void)small.id("one");
  (void)small.id("two");
  EXPECT_THROW((void)small.id("three"), std::length_error);
  (void)small.id("one");  // existing names still resolve at capacity
  EXPECT_THROW((void)small.id("one", MergeKind::kMax), std::invalid_argument);
}

// ------------------------------------------------------------ PhaseProfiler

TEST(PhaseProfiler, ScopesNestIntoSlashJoinedPaths) {
  PhaseProfiler profiler;
  {
    const PhaseProfiler::Scope outer(&profiler, "outer");
    { const PhaseProfiler::Scope inner(&profiler, "inner"); }
    { const PhaseProfiler::Scope inner(&profiler, "inner"); }
  }
  const auto stats = profiler.aggregate();  // sorted by path
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].path, "outer");
  EXPECT_EQ(stats[0].count, 1u);
  EXPECT_EQ(stats[1].path, "outer/inner");
  EXPECT_EQ(stats[1].count, 2u);
  for (const auto& stat : stats) EXPECT_GE(stat.total_ms, 0.0);
  // Raw spans close inner-first and carry non-negative times.
  const auto spans = profiler.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].path, "outer/inner");
  EXPECT_EQ(spans[2].path, "outer");
  for (const auto& span : spans) {
    EXPECT_GE(span.start_us, 0.0);
    EXPECT_GE(span.dur_us, 0.0);
  }
}

TEST(PhaseProfiler, EachThreadGetsItsOwnTrack) {
  PhaseProfiler profiler;
  profiler.label_current_thread("main");
  { const PhaseProfiler::Scope scope(&profiler, "on-main"); }
  std::thread worker([&] {
    const PhaseProfiler::Scope scope(&profiler, "on-worker");
  });
  worker.join();
  const auto tracks = profiler.tracks();
  ASSERT_EQ(tracks.size(), 2u);
  EXPECT_EQ(tracks[0].id, 0u);
  EXPECT_EQ(tracks[0].name, "main");
  EXPECT_EQ(tracks[1].id, 1u);
  const auto spans = profiler.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].track, spans[1].track);
}

TEST(PhaseProfiler, NullProfilerScopeIsANoOp) {
  // The instrumentation-off contract: a null scope must be constructible and
  // destructible with no profiler at all.
  const PhaseProfiler::Scope scope(nullptr, "ignored");
  PhaseProfiler profiler;
  EXPECT_TRUE(profiler.spans().empty());
}

// ----------------------------------------------------------- DeliverySampler

TEST(DeliverySampler, KeepsEveryStepWhileUnderCapacity) {
  DeliverySampler sampler(16);
  for (std::uint64_t t = 0; t < 10; ++t) {
    DeliverySampler::Sample sample;
    sample.time = t;
    sampler.record(sample);
  }
  EXPECT_EQ(sampler.stride(), 1u);
  EXPECT_EQ(sampler.steps_seen(), 10u);
  ASSERT_EQ(sampler.samples().size(), 10u);
  EXPECT_EQ(sampler.samples().front().time, 0u);
  EXPECT_EQ(sampler.samples().back().time, 9u);
}

TEST(DeliverySampler, DecimatesToPowerOfTwoStridesWithinBudget) {
  constexpr std::size_t kMax = 8;
  DeliverySampler sampler(kMax);
  for (std::uint64_t t = 0; t < 1000; ++t) {
    DeliverySampler::Sample sample;
    sample.time = t;
    sampler.record(sample);
  }
  EXPECT_EQ(sampler.steps_seen(), 1000u);
  EXPECT_LE(sampler.samples().size(), kMax);
  const std::uint64_t stride = sampler.stride();
  EXPECT_EQ(stride & (stride - 1), 0u) << "stride must be a power of two";
  // The kept samples are exactly the stride-multiples, first step included.
  ASSERT_FALSE(sampler.samples().empty());
  for (std::size_t i = 0; i < sampler.samples().size(); ++i) {
    EXPECT_EQ(sampler.samples()[i].time, i * stride);
  }
}

TEST(DeliverySampler, MaxSamplesIsClampedToAtLeastTwo) {
  DeliverySampler sampler(0);
  EXPECT_GE(sampler.max_samples(), 2u);
}

// ------------------------------------------------- traffic-phase harnesses

RouterFactory best_first_factory() {
  return [] { return std::make_unique<BestFirstRouter>(); };
}

struct TrafficFixture {
  Hypercube graph{8};
  HashEdgeSampler sampler{0.45, 1234};
  std::vector<TrafficMessage> messages;
  TrafficFixture() {
    WorkloadConfig workload;
    workload.kind = WorkloadKind::kPermutation;
    workload.messages = 192;
    workload.seed = 7;
    messages = generate_workload(graph, workload);
  }
};

void expect_identical(const TrafficResult& a, const TrafficResult& b) {
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.routed, b.routed);
  EXPECT_EQ(a.failed_routing, b.failed_routing);
  EXPECT_EQ(a.censored, b.censored);
  EXPECT_EQ(a.invalid_paths, b.invalid_paths);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.stranded, b.stranded);
  EXPECT_EQ(a.total_distinct_probes, b.total_distinct_probes);
  EXPECT_EQ(a.unique_edges_probed, b.unique_edges_probed);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.max_edge_load, b.max_edge_load);
  EXPECT_DOUBLE_EQ(a.mean_edge_load, b.mean_edge_load);
  EXPECT_EQ(a.edges_used, b.edges_used);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.mean_queueing_delay, b.mean_queueing_delay);
  EXPECT_EQ(a.max_queueing_delay, b.max_queueing_delay);
  EXPECT_DOUBLE_EQ(a.mean_path_edges, b.mean_path_edges);
  EXPECT_EQ(a.sim_steps, b.sim_steps);
  EXPECT_EQ(a.admission_events, b.admission_events);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.peak_active_channels, b.peak_active_channels);
  EXPECT_EQ(a.channels, b.channels);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& x = a.outcomes[i];
    const auto& y = b.outcomes[i];
    EXPECT_EQ(x.routed, y.routed) << i;
    EXPECT_EQ(x.censored, y.censored) << i;
    EXPECT_EQ(x.delivered, y.delivered) << i;
    EXPECT_EQ(x.distinct_probes, y.distinct_probes) << i;
    EXPECT_EQ(x.path_edges, y.path_edges) << i;
    EXPECT_EQ(x.finish_time, y.finish_time) << i;
    EXPECT_EQ(x.queueing_delay, y.queueing_delay) << i;
  }
}

// --------------------------------------------- cache counters (satellite 1)

TEST(TrafficCacheCounters, HitMissSplitObeysExactIdentities) {
  const TrafficFixture fx;
  TrafficConfig config;
  config.threads = 3;
  const auto result =
      run_traffic(fx.graph, fx.sampler, best_first_factory(), fx.messages, config);
  ASSERT_GT(result.total_distinct_probes, 0u);
  // ProbeContext memoises per message, so the shared cache sees each
  // (message, edge) pair exactly once — the split is exact, not sampled.
  EXPECT_EQ(result.cache_hits + result.cache_misses, result.total_distinct_probes);
  EXPECT_EQ(result.cache_misses, result.unique_edges_probed);
  EXPECT_GT(result.cache_hits, 0u);  // a permutation batch always shares edges
}

TEST(TrafficCacheCounters, SplitExactlyTheFreshSinglePairProbes) {
  // The hits and misses partition total_distinct_probes, and each message's
  // share of it is what the message costs routed alone over the raw
  // sampler: the cache answers probes, it never adds or hides one.
  const TrafficFixture fx;
  TrafficConfig config;
  config.threads = 3;
  const auto result =
      run_traffic(fx.graph, fx.sampler, best_first_factory(), fx.messages, config);
  testing::expect_matches_fresh_probe_contexts(fx.graph, fx.sampler, best_first_factory(),
                                               fx.messages, config, result,
                                               "hypercube:8 best-first");
}

TEST(TrafficCacheCounters, AppearInTheReportTable) {
  const TrafficFixture fx;
  const auto result =
      run_traffic(fx.graph, fx.sampler, best_first_factory(), fx.messages, {});
  const std::string table = traffic_table(result).to_string();
  EXPECT_NE(table.find("probe cache hits"), std::string::npos);
  EXPECT_NE(table.find("probe cache misses"), std::string::npos);
}

// ---------------------------------- instrumentation-off golden (tentpole)

TEST(ObservabilityGolden, MetricsAttachmentNeverChangesTrafficResults) {
  const TrafficFixture fx;
  TrafficConfig bare;
  bare.threads = 2;
  const auto off =
      run_traffic(fx.graph, fx.sampler, best_first_factory(), fx.messages, bare);

  RunMetrics metrics;
  metrics.enable_delivery_sampler(64);
  TrafficConfig instrumented = bare;
  instrumented.metrics = &metrics;
  const auto on = run_traffic(fx.graph, fx.sampler, best_first_factory(), fx.messages,
                              instrumented);

  expect_identical(off, on);
  // And the instrumentation actually observed the run it didn't perturb.
  EXPECT_EQ(metrics.counters().value(metrics.counters().id("traffic.delivery.sim_steps")),
            on.sim_steps);
  EXPECT_EQ(metrics.counters().value(
                metrics.counters().id("traffic.routing.distinct_probes")),
            on.total_distinct_probes);
  EXPECT_FALSE(metrics.profiler().spans().empty());
  EXPECT_FALSE(metrics.delivery_sampler()->samples().empty());
}

TEST(ObservabilityGolden, ScenarioReportIsByteIdenticalWithMetricsAttached) {
  const auto spec = scenario::parse_scenario(
      "topology = hypercube:7; p = 0.4:0.6:2; router = greedy, best-first;"
      "messages = 64; trials = 2; threads = 2");

  std::ostringstream off_out;
  scenario::JsonLinesReporter off_reporter(off_out);
  const auto off = scenario::run_scenario(spec, off_reporter);

  RunMetrics metrics;
  scenario::RunOptions options;
  options.metrics = &metrics;
  std::ostringstream on_out;
  scenario::JsonLinesReporter on_reporter(on_out);
  const auto on = scenario::run_scenario(spec, on_reporter, options);

  EXPECT_EQ(off.cells, on.cells);
  EXPECT_EQ(off_out.str(), on_out.str());
  EXPECT_EQ(metrics.counters().value(metrics.counters().id("scenario.cells")),
            spec.num_cells());
}

// Per-cell phase times live in the --metrics profiler, never in the report:
// every cell gets routing / compile / delivery / aggregate spans under its
// cell-<i> scope, while report bytes stay free of wall clock.
TEST(ObservabilityGolden, PerCellPhaseTimesAreMetricsSpansNotReportFields) {
  const auto spec = scenario::parse_scenario(
      "topology = hypercube:6; p = 0.4, 0.6; messages = 32; threads = 1");
  RunMetrics metrics;
  scenario::RunOptions options;
  options.metrics = &metrics;
  std::ostringstream out;
  scenario::JsonLinesReporter reporter(out);
  (void)scenario::run_scenario(spec, reporter, options);
  EXPECT_EQ(out.str().find("_ms\""), std::string::npos)
      << "wall-clock fields would break the byte-identical rerun contract";

  std::set<std::string> paths;
  for (const auto& stat : metrics.profiler().aggregate()) paths.insert(stat.path);
  for (std::uint64_t cell = 0; cell < spec.num_cells(); ++cell) {
    for (const char* phase : {"routing", "compile", "delivery", "aggregate"}) {
      const std::string path = "scenario/cell-" + std::to_string(cell) + "/" + phase;
      EXPECT_EQ(paths.count(path), 1U) << path;
    }
  }
}

// --------------------------------------------------- serialization smoke

TEST(RunMetricsOutput, MetricsJsonCarriesSchemaProvenanceAndCounters) {
  RunMetrics metrics;
  metrics.counters().add(metrics.counters().id("test.alpha"), 5);
  { const PhaseProfiler::Scope scope(&metrics.profiler(), "phase-a"); }
  std::ostringstream out;
  metrics.write_metrics_json(out, "unit-test");
  const std::string json = out.str();
  EXPECT_NE(json.find(std::string("\"schema\":\"") + obs::schemas::kMetrics + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"command\":\"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"provenance\""), std::string::npos);
  EXPECT_NE(json.find("\"git_hash\""), std::string::npos);
  EXPECT_NE(json.find("\"test.alpha\":5"), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"phase-a\""), std::string::npos);
  EXPECT_EQ(json.find("\"delivery_samples\""), std::string::npos)
      << "sampler section must be absent when sampling was never enabled";
}

TEST(RunMetricsOutput, ChromeTraceHasMetadataAndCompleteEvents) {
  RunMetrics metrics;
  metrics.profiler().label_current_thread("main");
  { const PhaseProfiler::Scope scope(&metrics.profiler(), "traced"); }
  std::ostringstream out;
  metrics.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"traced\""), std::string::npos);
}

TEST(BuildInfo, ProvenanceFieldsAreNeverEmpty) {
  const auto& info = obs::build_info();
  EXPECT_FALSE(info.git_hash.empty());
  EXPECT_FALSE(info.compiler.empty());
  EXPECT_FALSE(info.build_type.empty());
}

}  // namespace
}  // namespace faultroute
