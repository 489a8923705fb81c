// Golden results suite: the traffic pipeline's output is pinned to committed
// files under tests/golden/, so a change that moves any result — a probe
// count, a path, a delivery time — fails here even when it moves every code
// path the same way.
//
//  * Scenario reports: `faultroute scenario` JSON-lines of every curated
//    scenarios/*.scn, at --quick and full size, with the header's build
//    `provenance` object removed, reproduced at scenario threads 1, 2 and 4.
//    The --quick reports are also replayed with `adjacency = implicit` and
//    with `frontier = permsg`: the alternate code paths must reproduce the
//    same committed bytes as the flat, batched default.
//  * Outcome digests: one FNV-1a digest per cell over every MessageOutcome
//    field, at --quick size, with the runner's seeding (row-major cell index,
//    trial fastest, derive_seed(seed, 2i) / (seed, 2i+1)), reproduced at
//    run_traffic threads 1, 2 and 4; plus targeted delivery edge cases (step
//    caps, idle Poisson gaps, extra capacity).
//  * Definition-2 cross-check (no golden file): every routed message of the
//    quick sweeps must match a fresh, self-contained hash-backed ProbeContext
//    routing the same pair — same routed/censored verdict, same distinct
//    probe count (the shared cache and the pooled arenas are transparent),
//    same path.
//
// A mismatch prints the actual golden line. To regenerate after an
// intended result change, run (from the build directory)
//   ./test_traffic_golden --gtest_also_run_disabled_tests
//       --gtest_filter='TrafficGolden.DISABLED_Regenerate'
// and commit the rewritten tests/golden/ files (see tests/golden/README.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/path.hpp"
#include "core/routers/greedy_router.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "helpers/fresh_probe_reference.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/rng.hpp"
#include "scenario/reporter.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sim/registry.hpp"
#include "traffic/routing_phase.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

#ifndef FAULTROUTE_SOURCE_DIR
#error "test_traffic_golden requires FAULTROUTE_SOURCE_DIR (set by CMakeLists.txt)"
#endif

namespace faultroute {
namespace {

const std::vector<std::string> kScenarioStems = {
    "bisection_topologies", "debruijn_router_shootout", "gnp_oracle_gap",
    "hotspot_meltdown",     "hypercube_phase",          "mesh_poisson_load"};

const std::string kGoldenDir = std::string(FAULTROUTE_SOURCE_DIR) + "/tests/golden";
const std::string kDigestFile = kGoldenDir + "/outcome_digests.txt";

std::string scenario_golden_path(const std::string& stem, bool quick) {
  return kGoldenDir + "/scenarios/" + stem + (quick ? ".quick" : ".full") + ".jsonl";
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void write_lines(const std::string& path, const std::vector<std::string>& lines) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << '\n';
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

/// Holds `actual` line-for-line equal to the golden file, printing every
/// differing actual line (and a count mismatch) rather than a bare diff.
void expect_matches_golden(const std::vector<std::string>& actual, const std::string& path,
                           const std::string& label) {
  const std::vector<std::string> golden = read_lines(path);
  EXPECT_EQ(actual.size(), golden.size()) << label << ": line count differs from " << path;
  const std::size_t n = std::min(actual.size(), golden.size());
  int shown = 0;
  for (std::size_t i = 0; i < n && shown < 8; ++i) {
    if (actual[i] == golden[i]) continue;
    ADD_FAILURE() << label << ": " << path << " line " << (i + 1) << "\n  actual: "
                  << actual[i] << "\n  golden: " << golden[i];
    ++shown;
  }
}

// ------------------------------------------------------------ scenario specs

/// The curated spec at full size, or shrunk exactly as `faultroute scenario
/// --quick` shrinks it (messages <= 64, trials <= 2; sweep axes untouched).
scenario::ScenarioSpec load_spec(const std::string& stem, bool quick) {
  scenario::ScenarioSpec spec = scenario::load_scenario_file(
      std::string(FAULTROUTE_SOURCE_DIR) + "/scenarios/" + stem + ".scn");
  if (quick) {
    spec.messages = std::min<std::uint64_t>(spec.messages, 64);
    spec.trials = std::min<std::uint64_t>(spec.trials, 2);
  }
  scenario::validate_scenario(spec);
  return spec;
}

/// Drops the header's `"provenance":{...},` member: it names the build, not
/// the results, and is the only report field that differs across commits.
std::string strip_provenance(std::string line) {
  const std::string key = "\"provenance\":{";
  const auto begin = line.find(key);
  if (begin == std::string::npos) return line;
  const auto close = line.find('}', begin);
  if (close == std::string::npos) return line;
  const auto end = close + 1 < line.size() && line[close + 1] == ',' ? close + 2 : close + 1;
  return line.erase(begin, end - begin);
}

/// The report of `stem`, after applying the spec `assignments` (scenario
/// grammar, as `faultroute scenario --spec` takes them) on top of the file.
std::vector<std::string> scenario_report(const std::string& stem, bool quick,
                                         unsigned threads,
                                         const std::string& assignments = "") {
  scenario::ScenarioSpec spec = load_spec(stem, quick);
  scenario::apply_scenario_assignments(spec, assignments);
  spec.threads = threads;
  std::ostringstream out;
  scenario::JsonLinesReporter reporter(out);
  (void)scenario::run_scenario(spec, reporter);
  std::vector<std::string> lines;
  std::istringstream in(out.str());
  for (std::string line; std::getline(in, line);) lines.push_back(strip_provenance(line));
  return lines;
}

// ----------------------------------------------------------- outcome digests

/// FNV-1a over 64-bit words: stable across platforms and builds.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buffer[20];
    std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Digest of every MessageOutcome field of every message, in id order.
std::string outcome_digest(const TrafficResult& result) {
  Digest digest;
  digest.add(result.outcomes.size());
  for (const MessageOutcome& out : result.outcomes) {
    digest.add(out.message.id);
    digest.add(out.message.source);
    digest.add(out.message.target);
    digest.add(out.message.inject_time);
    digest.add(out.routed ? 1 : 0);
    digest.add(out.censored ? 1 : 0);
    digest.add(out.delivered ? 1 : 0);
    digest.add(out.distinct_probes);
    digest.add(out.path_edges);
    digest.add(out.finish_time);
    digest.add(out.queueing_delay);
  }
  return digest.hex();
}

/// One cell of a curated sweep, rebuilt with the runner's exact contract
/// (scenario/runner.cpp): cell order, seeding, and TrafficConfig.
struct Cell {
  std::string label;  // "<stem> cell <i> (<topology>, p=<p>, <router>, <workload>)"
  const Topology* topology = nullptr;
  std::string router;
  double p = 0.0;
  std::uint64_t env_seed = 0;
  std::vector<TrafficMessage> messages;
  TrafficConfig config;
};

/// Calls `visit` on every cell of the quick-size sweep `stem`.
void for_each_quick_cell(const std::string& stem, const std::function<void(const Cell&)>& visit) {
  const scenario::ScenarioSpec spec = load_spec(stem, /*quick=*/true);
  std::vector<std::unique_ptr<Topology>> topologies;
  for (const auto& topo_spec : spec.topologies) {
    topologies.push_back(sim::make_topology(topo_spec));
  }
  std::uint64_t index = 0;
  for (std::size_t ti = 0; ti < topologies.size(); ++ti) {
    for (const double p : spec.p_values) {
      for (const auto& router : spec.routers) {
        for (const auto& workload_spec : spec.workloads) {
          for (std::uint64_t trial = 0; trial < spec.trials; ++trial, ++index) {
            Cell cell;
            cell.topology = topologies[ti].get();
            cell.router = router;
            cell.p = p;
            cell.env_seed = derive_seed(spec.seed, 2 * index);
            char p_text[32];
            std::snprintf(p_text, sizeof p_text, "%.10g", p);
            cell.label = stem + " cell " + std::to_string(index) + " (" +
                         spec.topologies[ti] + ", p=" + p_text + ", " + router + ", " +
                         workload_spec + ")";
            WorkloadConfig workload = sim::make_workload(workload_spec);
            workload.messages = spec.messages;
            workload.seed = derive_seed(spec.seed, 2 * index + 1);
            cell.messages = generate_workload(*cell.topology, workload);
            cell.config.edge_capacity = spec.edge_capacity;
            if (spec.probe_budget > 0) cell.config.probe_budget = spec.probe_budget;
            cell.config.max_steps = spec.max_steps;
            cell.config.adjacency = parse_adjacency_mode(spec.adjacency);
            cell.config.frontier = parse_frontier_mode(spec.frontier);
            visit(cell);
          }
        }
      }
    }
  }
}

TrafficResult run_cell(const Cell& cell, unsigned threads) {
  TrafficConfig config = cell.config;
  config.threads = threads;
  const HashEdgeSampler environment(cell.p, cell.env_seed);
  const Topology& topology = *cell.topology;
  const std::string& router = cell.router;
  const auto factory = [&]() { return sim::make_router(router, topology); };
  return run_traffic(topology, environment, factory, cell.messages, config);
}

RouterFactory best_first_factory() {
  return [] { return std::make_unique<BestFirstRouter>(); };
}

/// Targeted delivery edge cases: a hotspot on a line under tiny step caps
/// (which messages strand), a sparse Poisson stream (the calendar's idle-gap
/// skip), and a hotspot under extra capacity. Returns "<name> <digest>"
/// lines.
std::vector<std::string> edge_case_lines(unsigned threads) {
  std::vector<std::string> lines;
  const auto record = [&](const std::string& name, const TrafficResult& result) {
    lines.push_back("edge " + name + " " + outcome_digest(result));
  };
  const Mesh line(1, 16, /*wrap=*/false);
  const HashEdgeSampler all_open(1.0, 1);
  WorkloadConfig hotspot;
  hotspot.kind = WorkloadKind::kHotspot;
  hotspot.messages = 48;
  const auto hot48 = generate_workload(line, hotspot);
  for (const std::uint64_t cap : {1ULL, 5ULL, 23ULL}) {
    TrafficConfig config;
    config.threads = threads;
    config.max_steps = cap;
    record("step-cap=" + std::to_string(cap),
           run_traffic(line, all_open, best_first_factory(), hot48, config));
  }
  hotspot.messages = 64;
  const auto hot64 = generate_workload(line, hotspot);
  for (const std::uint64_t capacity : {2ULL, 4ULL, 64ULL}) {
    TrafficConfig config;
    config.threads = threads;
    config.edge_capacity = capacity;
    record("capacity=" + std::to_string(capacity),
           run_traffic(line, all_open, best_first_factory(), hot64, config));
  }
  const Hypercube cube(6);
  const HashEdgeSampler env(0.8, 17);
  WorkloadConfig poisson;
  poisson.kind = WorkloadKind::kPoisson;
  poisson.messages = 200;
  poisson.arrival_rate = 0.02;
  TrafficConfig config;
  config.threads = threads;
  record("sparse-poisson",
         run_traffic(cube, env, best_first_factory(), generate_workload(cube, poisson), config));
  return lines;
}

/// Every line of the digest golden file, computed at `threads`.
std::vector<std::string> digest_lines(unsigned threads) {
  std::vector<std::string> lines;
  for (const std::string& stem : kScenarioStems) {
    for_each_quick_cell(stem, [&](const Cell& cell) {
      lines.push_back(cell.label + " " + outcome_digest(run_cell(cell, threads)));
    });
  }
  for (std::string& line : edge_case_lines(threads)) lines.push_back(std::move(line));
  return lines;
}

// --------------------------------------------------------------------- tests

void check_scenario(const std::string& stem, bool quick) {
  for (const unsigned threads : {1U, 2U, 4U}) {
    expect_matches_golden(scenario_report(stem, quick, threads),
                          scenario_golden_path(stem, quick),
                          stem + (quick ? " --quick" : " full") + " threads=" +
                              std::to_string(threads));
  }
}

TEST(TrafficGolden, ScenarioReportsQuick) {
  for (const std::string& stem : kScenarioStems) check_scenario(stem, /*quick=*/true);
}

TEST(TrafficGolden, ScenarioReportsFull) {
  for (const std::string& stem : kScenarioStems) check_scenario(stem, /*quick=*/false);
}

// Implicit adjacency: every neighbor, edge-key and edge-id query goes
// through the virtual Topology interface (no CSR snapshot), and routing
// falls back to one search per message.
TEST(TrafficGolden, ImplicitAdjacencyReplaysQuickReports) {
  for (const std::string& stem : kScenarioStems) {
    expect_matches_golden(scenario_report(stem, /*quick=*/true, 1, "adjacency = implicit"),
                          scenario_golden_path(stem, /*quick=*/true),
                          stem + " --quick adjacency=implicit");
  }
}

// Per-message frontier search on the flat path: no block executor, no
// distance-oracle prewarm.
TEST(TrafficGolden, PerMessageFrontierReplaysQuickReports) {
  for (const std::string& stem : kScenarioStems) {
    expect_matches_golden(scenario_report(stem, /*quick=*/true, 1, "frontier = permsg"),
                          scenario_golden_path(stem, /*quick=*/true),
                          stem + " --quick frontier=permsg");
  }
}

TEST(TrafficGolden, OutcomeDigests) {
  for (const unsigned threads : {1U, 2U, 4U}) {
    expect_matches_golden(digest_lines(threads), kDigestFile,
                          "outcome digests threads=" + std::to_string(threads));
  }
}

// The single-pair Definition-2 harness as an independent referee: a fresh
// ProbeContext with the hash backend (no arena), implicit adjacency, the raw
// environment sampler (no shared cache) and no distance oracle routes each
// message's pair alone. The batched, cached, arena-backed, flat-adjacency
// pipeline must agree message for message — this is also what keeps the
// hash ProbeContext backend (the one `route` uses on a 2^40-vertex
// hypercube) under test.
TEST(TrafficGolden, EveryMessageMatchesAFreshSinglePairProbeContext) {
  std::uint64_t checked = 0;
  for (const std::string& stem : kScenarioStems) {
    for_each_quick_cell(stem, [&](const Cell& cell) {
      const Topology& topology = *cell.topology;
      const HashEdgeSampler environment(cell.p, cell.env_seed);
      const auto factory = [&]() { return sim::make_router(cell.router, topology); };
      TrafficConfig config = cell.config;
      config.threads = 1;
      const TrafficResult traffic =
          run_traffic(topology, environment, factory, cell.messages, config);
      TrafficResult phase1;
      phase1.outcomes.resize(cell.messages.size());
      const auto journeys = detail::route_and_validate(topology, environment, factory,
                                                       cell.messages, config, phase1);
      ASSERT_EQ(traffic.invalid_paths, 0U) << cell.label;

      std::vector<Path> reference;
      ASSERT_NO_FATAL_FAILURE(testing::expect_matches_fresh_probe_contexts(
          topology, environment, factory, cell.messages, config, traffic, cell.label,
          &reference));
      for (std::size_t i = 0; i < cell.messages.size(); ++i) {
        if (traffic.outcomes[i].routed) {
          ASSERT_EQ(journeys[i].path, reference[i]) << cell.label << " msg " << i;
        }
      }
      checked += cell.messages.size();
    });
  }
  EXPECT_GT(checked, 0U);
}

// Rewrites every file under tests/golden/ from the current build. Disabled:
// run it explicitly (see the header comment) only for an intended result
// change, then review and commit the diff.
TEST(TrafficGolden, DISABLED_Regenerate) {
  for (const std::string& stem : kScenarioStems) {
    for (const bool quick : {true, false}) {
      write_lines(scenario_golden_path(stem, quick), scenario_report(stem, quick, 1));
    }
  }
  write_lines(kDigestFile, digest_lines(1));
}

}  // namespace
}  // namespace faultroute
