// Measurement harness of the end-to-end benchmark (see perfbench/README.md).
//
// Drives faultroute's real entry points — scenario::run_scenario and
// run_traffic — and times calls into each module's public functions from the
// outside; it adds no instrumentation to the library. One invocation runs one
// mode on one workload and prints one JSON object on stdout. perfbench/run.py
// builds this program, chooses the workloads, checks the digests against the
// references and derives every metric.
//
//   perfbench_e2e MODE --entry scenario|traffic --spec "key = value; ..."
//                 [--seconds S] [--min-reps N] [--reps N] [--work-dir DIR]
//
// The spec uses the scenario grammar (docs/SCENARIOS.md). A traffic workload
// is a spec with one topology, p, router and workload; its environment seed
// is derive_seed(seed, 0), its workload seed derive_seed(seed, 1), and
// `threads` is the routing-phase thread count.
//
// Modes:
//   measure  untraced calls, repeated until --seconds have passed
//   setup    the same call with the batch cut to one message (one per cell)
//   trace    traced and untraced calls alternated until --seconds have passed;
//            per traced call the PhaseProfiler rollup and the counters
//   layers   isolated public calls on freshly built objects, --reps of each
//
// Every mode first makes one untimed warm-up call. Every call's outputs are
// checked (the invariants of check_invariants) and digested: the report
// bytes without provenance for scenario runs, the TrafficResult fields and
// outcomes for traffic runs.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/channel_index.hpp"
#include "graph/flat_adjacency.hpp"
#include "graph/snapshot.hpp"
#include "obs/build_info.hpp"
#include "obs/counter_registry.hpp"
#include "obs/run_metrics.hpp"
#include "percolation/edge_sampler.hpp"
#include "random/rng.hpp"
#include "random/splitmix64.hpp"
#include "scenario/reporter.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sim/registry.hpp"
#include "traffic/shared_probe_cache.hpp"
#include "traffic/traffic_engine.hpp"
#include "traffic/workload.hpp"

namespace fr = faultroute;

namespace {

// ------------------------------------------------------------------ clocks

double wall_now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User plus system CPU seconds of the whole process (all threads).
double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Bytes the allocator has handed out and not taken back, in MiB: heap
/// chunks in use plus mmap-ed chunks. Unlike the process's RSS this does not
/// read 0 when a build reuses pages an earlier, freed build left resident.
double heap_in_use_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// ------------------------------------------------------------------ output

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    // Exception messages end up here; JSON strings cannot hold control bytes.
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string num(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

std::string num_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += num(values[i]);
  }
  return out + "]";
}

// ------------------------------------------------------------ output check

/// 64-bit FNV-1a over a byte stream; integers are fed little-endian so the
/// digest does not depend on the host's byte order.
class Digest {
 public:
  void bytes(const std::string& s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  [[nodiscard]] std::string hex() const {
    std::ostringstream out;
    out << std::hex << std::setw(16) << std::setfill('0') << hash_;
    return out.str();
  }

 private:
  void byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 1099511628211ull;
  }
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// Outcome of the output check of one entry-point call.
struct Check {
  std::uint64_t messages = 0;
  std::uint64_t failed = 0;  ///< invalid paths + stranded messages
  std::vector<std::string> violations;
  std::string digest;
};

/// The invariants every cell (scenario) or batch (traffic) must satisfy.
/// Works on CellResult and TrafficResult alike: they share the field names.
template <typename Result>
void check_invariants(const Result& r, const std::string& where, Check& check) {
  check.messages += r.messages;
  check.failed += r.invalid_paths + r.stranded;
  const auto require = [&](bool ok, const char* what) {
    if (!ok) check.violations.push_back(where + ": " + what);
  };
  require(r.routed + r.failed_routing + r.censored + r.invalid_paths == r.messages,
          "routed + failed + censored + invalid != messages");
  require(r.cache_hits + r.cache_misses == r.total_distinct_probes,
          "cache hits + misses != distinct probes");
  require(r.cache_misses == r.unique_edges_probed, "cache misses != unique edges");
  require(r.invalid_paths == 0, "invalid paths");
  require(r.stranded == 0, "stranded messages");
}

/// Report bytes minus the header's provenance object, which names the build
/// and so differs between otherwise identical runs of different commits.
std::string strip_provenance(std::string report) {
  const std::string key = ",\"provenance\":{";
  const std::size_t at = report.find(key);
  if (at == std::string::npos) return report;
  const std::size_t close = report.find('}', at + key.size());
  if (close == std::string::npos) return report;
  report.erase(at, close + 1 - at);
  return report;
}

std::string traffic_digest(const fr::TrafficResult& r) {
  Digest d;
  for (const std::uint64_t v :
       {r.messages, r.routed, r.failed_routing, r.censored, r.invalid_paths, r.delivered,
        r.stranded, r.total_distinct_probes, r.unique_edges_probed, r.cache_hits,
        r.cache_misses, r.max_edge_load, r.edges_used, r.makespan, r.max_queueing_delay,
        r.sim_steps, r.admission_events, r.transmissions, r.peak_active_channels,
        r.channels}) {
    d.u64(v);
  }
  d.f64(r.mean_edge_load);
  d.f64(r.mean_queueing_delay);
  d.f64(r.mean_path_edges);
  for (const fr::MessageOutcome& o : r.outcomes) {
    for (const std::uint64_t v :
         {std::uint64_t{o.message.id}, std::uint64_t{o.message.source},
          std::uint64_t{o.message.target}, o.message.inject_time, std::uint64_t{o.routed},
          std::uint64_t{o.censored}, std::uint64_t{o.delivered}, o.distinct_probes,
          o.path_edges, o.finish_time, o.queueing_delay}) {
      d.u64(v);
    }
  }
  return d.hex();
}

/// Reporter decorator: checks every cell and times the wrapped reporter.
class TimedReporter final : public fr::scenario::Reporter {
 public:
  TimedReporter(fr::scenario::Reporter& inner, Check& check) : inner_(inner), check_(check) {}
  void begin(const fr::scenario::ScenarioSpec& spec) override {
    const double t0 = wall_now_s();
    inner_.begin(spec);
    seconds_ += wall_now_s() - t0;
  }
  void report(const fr::scenario::CellResult& cell) override {
    check_invariants(cell, "cell " + std::to_string(cell.cell), check_);
    const double t0 = wall_now_s();
    inner_.report(cell);
    seconds_ += wall_now_s() - t0;
  }
  void end() override {
    const double t0 = wall_now_s();
    inner_.end();
    seconds_ += wall_now_s() - t0;
  }
  [[nodiscard]] double ms() const { return seconds_ * 1e3; }

 private:
  fr::scenario::Reporter& inner_;
  Check& check_;
  double seconds_ = 0.0;
};

// --------------------------------------------------------------- workloads

struct Workload {
  bool is_scenario = true;
  fr::scenario::ScenarioSpec spec;
  /// Traffic workloads: the generated batch. The program receives only this.
  std::vector<fr::TrafficMessage> messages;
};

fr::WorkloadConfig traffic_workload_config(const fr::scenario::ScenarioSpec& spec) {
  fr::WorkloadConfig config = fr::sim::make_workload(spec.workloads.front());
  config.messages = spec.messages;
  config.seed = fr::derive_seed(spec.seed, 1);
  return config;
}

Workload load_workload(const std::string& entry, const std::string& spec_text) {
  Workload w;
  if (entry != "scenario" && entry != "traffic") {
    throw std::invalid_argument("--entry must be 'scenario' or 'traffic', got '" + entry + "'");
  }
  w.is_scenario = entry == "scenario";
  w.spec = fr::scenario::parse_scenario(spec_text);
  if (!w.is_scenario) {
    const auto& s = w.spec;
    if (s.topologies.size() != 1 || s.p_values.size() != 1 || s.routers.size() != 1 ||
        s.workloads.size() != 1 || s.trials != 1) {
      throw std::invalid_argument(
          "a traffic workload needs exactly one topology, p, router and workload, and trials = 1");
    }
    const auto shape = fr::sim::make_topology(s.topologies.front());
    w.messages = fr::generate_workload(*shape, traffic_workload_config(s));
  }
  return w;
}

/// The same workload with the batch cut to one message (one per cell).
Workload one_message(const Workload& w) {
  Workload cut;
  cut.is_scenario = w.is_scenario;
  cut.spec = w.spec;
  cut.spec.messages = 1;
  if (!w.messages.empty()) cut.messages.assign(w.messages.begin(), w.messages.begin() + 1);
  return cut;
}

fr::TrafficConfig traffic_config(const fr::scenario::ScenarioSpec& spec) {
  fr::TrafficConfig config;
  config.edge_capacity = spec.edge_capacity;
  if (spec.probe_budget > 0) config.probe_budget = spec.probe_budget;
  config.max_steps = spec.max_steps;
  config.threads = spec.threads;
  config.adjacency = fr::parse_adjacency_mode(spec.adjacency);
  config.frontier = fr::parse_frontier_mode(spec.frontier);
  return config;
}

/// One call of the workload's entry point on freshly built objects. For a
/// traffic workload the call is what `faultroute traffic` does after parsing:
/// build the topology from its spec, then run_traffic on the given batch.
Check call_entry_unchecked(const Workload& w, fr::obs::RunMetrics* metrics,
                           double* reporter_ms) {
  Check check;
  if (w.is_scenario) {
    std::ostringstream report;
    fr::scenario::JsonLinesReporter jsonl(report);
    TimedReporter timed(jsonl, check);
    fr::scenario::RunOptions options;
    options.metrics = metrics;
    fr::scenario::run_scenario(w.spec, timed, options);
    Digest d;
    d.bytes(strip_provenance(report.str()));
    check.digest = d.hex();
    if (reporter_ms != nullptr) *reporter_ms = timed.ms();
    return check;
  }
  fr::obs::PhaseProfiler* profiler = metrics != nullptr ? &metrics->profiler() : nullptr;
  std::unique_ptr<fr::Topology> topology;
  {
    const fr::obs::PhaseProfiler::Scope scope(profiler, "make_topology");
    topology = fr::sim::make_topology(w.spec.topologies.front());
  }
  const fr::HashEdgeSampler environment(w.spec.p_values.front(), fr::derive_seed(w.spec.seed, 0));
  const std::string& router = w.spec.routers.front();
  const auto factory = [&] { return fr::sim::make_router(router, *topology); };
  fr::TrafficConfig config = traffic_config(w.spec);
  config.metrics = metrics;
  const fr::TrafficResult result =
      fr::run_traffic(*topology, environment, factory, w.messages, config);
  check_invariants(result, "traffic", check);
  check.digest = traffic_digest(result);
  return check;
}

/// call_entry_unchecked, except that a call which throws fails every message
/// it was given instead of ending the measurement.
Check call_entry(const Workload& w, fr::obs::RunMetrics* metrics, double* reporter_ms) {
  try {
    return call_entry_unchecked(w, metrics, reporter_ms);
  } catch (const std::exception& e) {
    Check check;
    check.messages = w.is_scenario ? w.spec.num_cells() * w.spec.messages : w.messages.size();
    check.failed = check.messages;
    check.violations.push_back(std::string("the call threw: ") + e.what());
    return check;
  }
}

// ------------------------------------------------------------------ modes

struct Options {
  std::string mode;
  std::string entry;
  std::string spec;
  double seconds = 10.0;
  int min_reps = 3;
  int reps = 5;
  std::string work_dir = ".";
};

/// Accumulates the checks of every call a mode makes; all calls of one mode
/// run the same inputs, so their digests must agree.
struct CheckLog {
  std::uint64_t calls = 0;
  std::uint64_t messages = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::string digest;

  void add(const Check& c) {
    ++calls;
    messages += c.messages;
    failed += c.failed;
    for (const auto& v : c.violations) {
      if (violations.size() < 20) violations.push_back(v);
    }
    if (digest.empty()) {
      digest = c.digest;
    } else if (c.digest != digest && violations.size() < 20) {
      violations.push_back("digest " + c.digest + " differs from the first call's " + digest);
    }
  }
  [[nodiscard]] std::string json() const {
    std::string out = "\"calls\":" + std::to_string(calls) +
                      ",\"messages\":" + std::to_string(messages) +
                      ",\"failed\":" + std::to_string(failed) + ",\"digest\":" + quote(digest) +
                      ",\"violations\":[";
    for (std::size_t i = 0; i < violations.size(); ++i) {
      if (i > 0) out += ',';
      out += quote(violations[i]);
    }
    return out + "]";
  }
};

/// measure / setup: untraced calls until `seconds` have passed and at least
/// `min_reps` were made, after one warm-up call.
std::string run_repeated(const Workload& w, const Options& opt) {
  CheckLog log;
  const double warm_t0 = wall_now_s();
  log.add(call_entry(w, nullptr, nullptr));
  const double first_call_s = wall_now_s() - warm_t0;
  // The process's high-water after exactly one call: the peak RSS of the
  // workload alone, before repeated calls can stack allocator state up.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double first_call_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  std::vector<double> wall;
  std::vector<double> cpu;
  const double start = wall_now_s();
  while (static_cast<int>(wall.size()) < opt.min_reps || wall_now_s() - start < opt.seconds) {
    const double c0 = cpu_now_s();
    const double t0 = wall_now_s();
    log.add(call_entry(w, nullptr, nullptr));
    wall.push_back(wall_now_s() - t0);
    cpu.push_back(cpu_now_s() - c0);
  }
  return "{\"first_call_s\":" + num(first_call_s) +
         ",\"first_call_rss_mb\":" + num(first_call_rss_mb) + ",\"wall_s\":" + num_list(wall) +
         ",\"cpu_s\":" + num_list(cpu) + ",\"messages_per_call\":" +
         std::to_string(log.messages / log.calls) + "," + log.json() + "}";
}

// ------------------------------------------------------------ trace rollup

/// Layer path of a span: drops everything up to a "cell-<i>" segment so
/// spans roll up across cells (the cell span itself becomes "cell"), and
/// files every route-worker span — opened on a worker's own track, or nested
/// under route when the loop runs inline — under one "route-worker" path.
std::string layer_path(const std::string& path) {
  static const std::regex cell_segment(R"((^|.*/)cell-[0-9]+(/|$))");
  std::string out = std::regex_replace(path, cell_segment, "");
  if (out.empty()) return "cell";
  return out.ends_with("route-worker") ? "route-worker" : out;
}

struct Rolled {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

struct TraceRollup {
  std::map<std::string, Rolled> layers;
  std::vector<double> cells_ms;
  double unattributed_ms = 0.0;
};

/// Rolls the profiler's spans up by layer path. Self time is computed per
/// raw span on its own track (duration minus its direct children), then
/// summed per layer path. Unattributed time is the calling thread's wall
/// time outside its root spans plus every cell's time outside the engine's
/// phases.
TraceRollup rollup(const fr::obs::PhaseProfiler& profiler, double wall_ms) {
  std::vector<fr::obs::PhaseProfiler::Span> spans = profiler.spans();
  std::uint32_t main_track = 0;
  for (const auto& track : profiler.tracks()) {
    if (track.name == "main") main_track = track.id;
  }
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    if (a.track != b.track) return a.track < b.track;
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.path.size() < b.path.size();
  });
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<bool> is_root(spans.size(), true);
  std::vector<std::size_t> open;  // stack of ancestors on the current track
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0 && spans[i].track != spans[i - 1].track) open.clear();
    while (!open.empty() && !spans[i].path.starts_with(spans[open.back()].path + "/")) {
      open.pop_back();
    }
    if (!open.empty()) {
      is_root[i] = false;
      // Only direct children count against a span's self time.
      if (spans[i].path.find('/', spans[open.back()].path.size() + 1) == std::string::npos) {
        child_us[open.back()] += spans[i].dur_us;
      }
    }
    open.push_back(i);
  }
  TraceRollup out;
  double main_roots_ms = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string layer = layer_path(spans[i].path);
    Rolled& r = out.layers[layer];
    const double self_ms = (spans[i].dur_us - child_us[i]) * 1e-3;
    ++r.count;
    r.total_ms += spans[i].dur_us * 1e-3;
    r.self_ms += self_ms;
    if (layer == "cell") {
      out.cells_ms.push_back(spans[i].dur_us * 1e-3);
      out.unattributed_ms += self_ms;
    }
    if (is_root[i] && spans[i].track == main_track) main_roots_ms += spans[i].dur_us * 1e-3;
  }
  out.unattributed_ms += wall_ms - main_roots_ms;
  return out;
}

std::map<std::string, std::uint64_t> counter_map(const fr::obs::CounterRegistry& registry) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& e : registry.snapshot()) out[e.name] = e.value;
  return out;
}

std::string traced_call_json(const Workload& w, CheckLog& log) {
  fr::obs::RunMetrics metrics;
  metrics.profiler().label_current_thread("main");
  const auto global_before = counter_map(fr::obs::global_registry());
  double reporter_ms = 0.0;
  const double t0 = wall_now_s();
  log.add(call_entry(w, &metrics, &reporter_ms));
  const double wall_s = wall_now_s() - t0;
  const TraceRollup r = rollup(metrics.profiler(), wall_s * 1e3);

  std::string out = "{\"wall_s\":" + num(wall_s) + ",\"reporter_ms\":" + num(reporter_ms) +
                    ",\"unattributed_ms\":" + num(r.unattributed_ms) +
                    ",\"cells_ms\":" + num_list(r.cells_ms) + ",\"layers\":{";
  bool first = true;
  for (const auto& [path, rolled] : r.layers) {
    out += std::string(first ? "" : ",") + quote(path) + ":{\"count\":" +
           std::to_string(rolled.count) + ",\"total_ms\":" + num(rolled.total_ms) +
           ",\"self_ms\":" + num(rolled.self_ms) + "}";
    first = false;
  }
  out += "},\"counters\":{";
  first = true;
  // Run counters, then this call's delta of the process-global graph.* ones.
  std::map<std::string, std::uint64_t> counters = counter_map(metrics.counters());
  for (const auto& [name, value] : counter_map(fr::obs::global_registry())) {
    const auto before = global_before.find(name);
    counters[name] = value - (before == global_before.end() ? 0 : before->second);
  }
  for (const auto& [name, value] : counters) {
    out += std::string(first ? "" : ",") + quote(name) + ":" + std::to_string(value);
    first = false;
  }
  return out + "}}";
}

/// trace: pairs of one traced and one untraced call until `seconds` have
/// passed.
std::string run_trace(const Workload& w, const Options& opt) {
  CheckLog traced_log;
  CheckLog untraced_log;
  untraced_log.add(call_entry(w, nullptr, nullptr));  // warm-up
  std::vector<std::string> traced;
  std::vector<double> untraced_wall;
  const auto untraced_call = [&] {
    const double t0 = wall_now_s();
    untraced_log.add(call_entry(w, nullptr, nullptr));
    untraced_wall.push_back(wall_now_s() - t0);
  };
  const double start = wall_now_s();
  while (static_cast<int>(traced.size()) < opt.min_reps || wall_now_s() - start < opt.seconds) {
    // Pair i is traced[i] with untraced_wall[i]; which of the two runs first
    // alternates, so the pair's wall ratio does not measure call order.
    if (traced.size() % 2 == 0) {
      traced.push_back(traced_call_json(w, traced_log));
      untraced_call();
    } else {
      untraced_call();
      traced.push_back(traced_call_json(w, traced_log));
    }
  }
  std::string out = "{\"untraced_wall_s\":" + num_list(untraced_wall) + ",\"untraced\":{" +
                    untraced_log.json() + "},\"traced_check\":{" + traced_log.json() +
                    "},\"traced\":[";
  for (std::size_t i = 0; i < traced.size(); ++i) {
    if (i > 0) out += ',';
    out += traced[i];
  }
  return out + "]}";
}

// -------------------------------------------------------- isolated layers

/// Times `body(fresh)` on `reps` freshly built topologies; `prepare` runs
/// untimed on each one first.
template <typename Prepare, typename Body>
std::vector<double> time_fresh(const std::string& topology_spec, int reps, Prepare prepare,
                               Body body) {
  std::vector<double> ms;
  for (int rep = 0; rep < reps; ++rep) {
    const auto topology = fr::sim::make_topology(topology_spec);
    prepare(*topology);
    const double t0 = wall_now_s();
    body(*topology);
    ms.push_back((wall_now_s() - t0) * 1e3);
  }
  return ms;
}

std::string run_layers(const Workload& w, const Options& opt) {
  const auto& spec = w.spec;
  const int reps = opt.reps;
  const auto nothing = [](const fr::Topology&) {};
  std::vector<double> topology_build(reps, 0.0);
  std::vector<double> channel_index(reps, 0.0);
  std::vector<double> channel_index_rss(reps, 0.0);
  std::vector<double> flat_adjacency(reps, 0.0);
  std::vector<double> snapshot_open(reps, 0.0);
  std::vector<double> shared_cache(reps, 0.0);
  std::vector<double> router_build(reps, 0.0);
  double flat_adjacency_mb = 0.0;  // deterministic: recorded once
  const auto add = [](std::vector<double>& into, const std::vector<double>& ms) {
    for (std::size_t i = 0; i < ms.size(); ++i) into[i] += ms[i];
  };

  const std::filesystem::path dir = std::filesystem::path(opt.work_dir) / "snapshots";
  std::filesystem::create_directories(dir);
  const fr::HashEdgeSampler environment(spec.p_values.front(), fr::derive_seed(spec.seed, 0));
  for (const std::string& topo : spec.topologies) {
    for (int rep = 0; rep < reps; ++rep) {
      const double build_t0 = wall_now_s();
      const auto g = fr::sim::make_topology(topo);
      topology_build[rep] += (wall_now_s() - build_t0) * 1e3;
      const double heap0 = heap_in_use_mb();
      const double t0 = wall_now_s();
      (void)g->channel_index();
      channel_index[rep] += (wall_now_s() - t0) * 1e3;
      // The index writes every byte it allocates, so all of it is resident.
      channel_index_rss[rep] += heap_in_use_mb() - heap0;
    }
    add(flat_adjacency,
        time_fresh(topo, reps, [](const fr::Topology& g) { (void)g.channel_index(); },
                   [](const fr::Topology& g) { (void)g.flat_adjacency(); }));
    add(shared_cache,
        time_fresh(topo, reps, [](const fr::Topology& g) { (void)g.flat_adjacency(); },
                   [&](const fr::Topology& g) {
                     const fr::SharedProbeCache cache(environment, g);
                     (void)cache.unique_edges();
                   }));
    {
      const auto g = fr::sim::make_topology(topo);
      flat_adjacency_mb +=
          static_cast<double>(g->flat_adjacency().memory_bytes()) / (1024.0 * 1024.0);
      fr::write_snapshot(fr::snapshot_path(dir.string(), topo), topo, g->flat_adjacency());
    }
    add(snapshot_open, time_fresh(topo, reps, nothing, [&](const fr::Topology& g) {
          if (fr::open_snapshot_adjacency(dir.string(), topo, g) == nullptr) {
            throw std::runtime_error("snapshot of '" + topo + "' was not found after writing it");
          }
        }));
    for (const std::string& router : spec.routers) {
      add(router_build, time_fresh(topo, reps, nothing, [&](const fr::Topology& g) {
            (void)fr::sim::make_router(router, g);
          }));
    }
  }
  std::filesystem::remove_all(dir);

  // Workload generation: every batch the call generates (one per cell).
  std::vector<double> workload_gen;
  for (int rep = 0; rep < reps; ++rep) {
    double ms = 0.0;
    if (w.is_scenario) {
      std::vector<std::unique_ptr<fr::Topology>> topologies;
      for (const auto& topo : spec.topologies) topologies.push_back(fr::sim::make_topology(topo));
      // Cells are row-major over (topology, p, router, workload, trial).
      const std::uint64_t cells_per_topology = spec.num_cells() / spec.topologies.size();
      for (std::uint64_t cell = 0; cell < spec.num_cells(); ++cell) {
        fr::WorkloadConfig config =
            fr::sim::make_workload(spec.workloads[(cell / spec.trials) % spec.workloads.size()]);
        config.messages = spec.messages;
        config.seed = fr::derive_seed(spec.seed, 2 * cell + 1);
        const fr::Topology& g = *topologies[cell / cells_per_topology];
        const double t0 = wall_now_s();
        (void)fr::generate_workload(g, config);
        ms += (wall_now_s() - t0) * 1e3;
      }
    } else {
      const auto g = fr::sim::make_topology(spec.topologies.front());
      const double t0 = wall_now_s();
      (void)fr::generate_workload(*g, traffic_workload_config(spec));
      ms = (wall_now_s() - t0) * 1e3;
    }
    workload_gen.push_back(ms);
  }

  // Percolation sampling over a fixed stream of 2^20 edge keys.
  constexpr std::size_t kKeys = std::size_t{1} << 20;
  std::vector<fr::EdgeKey> keys(kKeys);
  fr::SplitMix64 keygen(spec.seed);
  for (auto& key : keys) key = keygen.next();
  std::vector<double> sample_ns;
  std::uint64_t open_edges = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = wall_now_s();
    for (const fr::EdgeKey key : keys) open_edges += environment.is_open(key) ? 1 : 0;
    sample_ns.push_back((wall_now_s() - t0) * 1e9 / static_cast<double>(kKeys));
  }

  return "{\"topology_build_ms\":" + num_list(topology_build) +
         ",\"channel_index_ms\":" + num_list(channel_index) +
         ",\"channel_index_rss_mb\":" + num_list(channel_index_rss) +
         ",\"flat_adjacency_ms\":" + num_list(flat_adjacency) +
         ",\"flat_adjacency_mb\":" + num_list({flat_adjacency_mb}) +
         ",\"snapshot_open_ms\":" + num_list(snapshot_open) +
         ",\"shared_cache_build_ms\":" + num_list(shared_cache) +
         ",\"router_build_ms\":" + num_list(router_build) +
         ",\"workload_gen_ms\":" + num_list(workload_gen) +
         ",\"sample_ns\":" + num_list(sample_ns) +
         ",\"sampled_open_edges\":" + std::to_string(open_edges) + "}";
}

Options parse_options(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench_e2e MODE --entry E --spec S [...]");
  Options opt;
  opt.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--entry") {
      opt.entry = value;
    } else if (flag == "--spec") {
      opt.spec = value;
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--min-reps") {
      opt.min_reps = std::stoi(value);
    } else if (flag == "--reps") {
      opt.reps = std::stoi(value);
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  if (opt.min_reps < 0 || opt.reps < 1) {
    throw std::invalid_argument("--min-reps must be >= 0 and --reps >= 1");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_options(argc, argv);
    const fr::obs::BuildInfo& build = fr::obs::build_info();
    if (build.build_type != "Release") {
      std::cerr << "perfbench_e2e: refusing to measure a '" << build.build_type
                << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
      return 2;
    }
    const Workload w = load_workload(opt.entry, opt.spec);
    std::string body;
    if (opt.mode == "measure") {
      body = run_repeated(w, opt);
    } else if (opt.mode == "setup") {
      body = run_repeated(one_message(w), opt);
    } else if (opt.mode == "trace") {
      body = run_trace(w, opt);
    } else if (opt.mode == "layers") {
      body = run_layers(w, opt);
    } else {
      throw std::invalid_argument("unknown mode '" + opt.mode + "'");
    }
    std::cout << "{\"mode\":" << quote(opt.mode)
              << ",\"provenance\":" << fr::obs::provenance_json("perfbench_e2e")
              << ",\"result\":" << body << "}\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_e2e: " << e.what() << "\n";
    return 1;
  }
}
