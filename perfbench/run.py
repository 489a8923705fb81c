#!/usr/bin/env python3
"""End-to-end benchmark of faultroute with per-layer attribution.

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --steadiness [--workload NAME ...] [--runs N]
  python3 perfbench/run.py --write-reference
  add --quick to any of them for the small, fast variant the tests use

One run builds the harness (perfbench/e2e.cpp, linked against the library
the repository's CMakeLists.txt describes) into .bench_build/perfbench, then
drives the real entry points — scenario::run_scenario and run_traffic — on
one workload generated from --seed, checks every output, and prints every
metric by name with its unit. The last stdout line is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics of BENCHMARK.json for --trace 0 (untraced calls)
and its per-layer metrics for --trace 1 (traced calls plus isolated public
calls). The full record — provenance, quartiles and sample counts, and the
per-layer metrics of layers that run only on some workloads — is written to
.bench_build/perfbench/results/. perfbench/README.md says why each workload
exists and which layer metric should move which end-to-end metric.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD_DIR / "perfbench_e2e"
REFERENCE_FILE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 2005
THREADS = 4            # every workload runs with 4 threads in one process
PROCESSES = 3          # harness processes the timed calls are spread over
SETUP_PROCESSES = 7    # harness processes the set-up calls are spread over
SETUP_SECONDS = 4.0    # set-up calls per run: this long, and at least SETUP_REPS per process
SETUP_REPS = 1
SETUP_QUANTILE = 0.1   # setup_s is this quantile of the run's set-up calls
LAYER_REPS = 5         # isolated public calls: repetitions of each
CHILD_TIMEOUT_S = 170  # a harness process that outlives this is killed
QUICK_SCALE = 8        # --quick divides messages by this and runs one trial


@dataclasses.dataclass(frozen=True)
class Workload:
    entry: str  # "scenario" (run_scenario) or "traffic" (run_traffic)
    spec: dict  # scenario-grammar keys; seed and threads are added per run


# Why each workload exists: perfbench/README.md. Topology, p and router
# decide which layer does the work; do not change them.
# The two scenario specs are copies of scenarios/gnp_oracle_gap.scn and
# scenarios/debruijn_router_shootout.scn (router-mix at 1024 messages), kept
# here so that editing a curated scenario does not move the benchmark.
WORKLOADS = {
    "gnp-probe": Workload(
        "scenario",
        {"name": "gnp-oracle-gap", "topology": "complete:512",
         "p": "0.01, 0.02, 0.04, 0.08", "router": "gnp-local, gnp-oracle",
         "workload": "random-pairs", "messages": 256, "trials": 3}),
    "router-mix": Workload(
        "scenario",
        {"name": "debruijn-router-shootout", "topology": "de_bruijn:10", "p": 0.55,
         "router": "flood, flood-target-first, landmark, greedy, best-first, hybrid, "
                   "bidirectional",
         "workload": "random-pairs", "messages": 1024, "trials": 3, "budget": 20000}),
    "torus-drain": Workload(
        "traffic",
        {"topology": "torus:2:64", "p": 0.9, "router": "landmark",
         "workload": "permutation", "messages": 40000, "capacity": 1}),
    "hypercube-sparse": Workload(
        "traffic",
        {"topology": "hypercube:19", "p": 0.7, "router": "landmark",
         "workload": "permutation", "messages": 64}),
}

# Units of the metrics that BENCHMARK.json does not list: error_rate (never
# 0 is a contract rule it cannot meet) and the per-layer metrics of layers
# that run on some workloads only. They appear in the printed report and the
# result file of the workloads where their layer runs.
UNLISTED_UNITS = {
    "error_rate": "ratio",
    "graph.oracle_prewarm_ms": "ms",
    "traffic.frontier_batched_share": "ratio",
    "scenario.cell_ms_p50": "ms", "scenario.cell_ms_max": "ms",
    "scenario.worker_idle_share": "ratio", "scenario.reporter_ms": "ms",
}


# Per-layer metrics timed as isolated public calls (harness mode "layers"),
# keyed by the harness's field name.
ISOLATED = {
    "graph.topology_build_ms": "topology_build_ms",
    "graph.channel_index_ms": "channel_index_ms",
    "graph.channel_index_rss_mb": "channel_index_rss_mb",
    "graph.flat_adjacency_ms": "flat_adjacency_ms",
    "graph.flat_adjacency_mb": "flat_adjacency_mb",
    "graph.snapshot_open_ms": "snapshot_open_ms",
    "percolation.sample_ns": "sample_ns",
    "core.router_build_ms": "router_build_ms",
    "traffic.workload_gen_ms": "workload_gen_ms",
    "traffic.shared_cache_build_ms": "shared_cache_build_ms",
}


class BenchError(Exception):
    """A failure that leaves no result to print (build, harness crash)."""


# ------------------------------------------------------------------ inputs

def spec_text(name, seed, quick, threads=THREADS):
    """The generated spec the program receives: the workload's keys plus seed
    and threads, scaled down under --quick."""
    spec = dict(WORKLOADS[name].spec)
    if quick:
        spec["messages"] = max(2, spec["messages"] // QUICK_SCALE)
        if "trials" in spec:
            spec["trials"] = 1
    spec["seed"] = seed
    spec["threads"] = threads
    return "; ".join(f"{key} = {value}" for key, value in spec.items())


# ------------------------------------------------------------------- build

def build():
    """Configures (once) and builds the harness; logs go to build.log."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_e2e",
                  "-j", str(min(THREADS, os.cpu_count() or 1))])
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, check=False).returncode != 0:
                tail = log_path.read_text(encoding="utf-8", errors="replace")[-3000:]
                raise BenchError(f"build failed ({' '.join(step)}):\n{tail}")


# ---------------------------------------------------------------- harness

def harness(mode, name, spec, **options):
    """Runs one harness process (perfbench/e2e.cpp) and returns its JSON output."""
    args = [str(HARNESS), mode, "--entry", WORKLOADS[name].entry, "--spec", spec]
    for key, value in options.items():
        args += ["--" + key.replace("_", "-"), str(value)]
    try:
        proc = subprocess.run(args, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"harness {mode} on {name} ran over {CHILD_TIMEOUT_S} s") from error
    if proc.returncode != 0:
        raise BenchError(f"harness {mode} on {name} exited with {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def load_reference():
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def reference_digest(name, seed, quick):
    """The digest every run of this workload and seed must reproduce: the
    committed one for the default seed, else a threads-1 run's."""
    spec = spec_text(name, seed, quick, threads=1)
    if seed == DEFAULT_SEED and not quick:
        committed = load_reference().get(name)
        if committed is None or committed["spec"] != spec:
            raise BenchError(f"perfbench/reference.json has no entry for the current "
                             f"{name} spec; regenerate it with --write-reference")
        return committed["digest"]
    return harness("measure", name, spec, seconds=0, min_reps=0)["result"]["digest"]


# ----------------------------------------------------------------- helpers

def summary(values):
    """Median, quartiles and sample count of a list of samples."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def ratio(num, den):
    return num / den if den else None


def low_quantile(values, q):
    """Nearest-rank q-quantile: the smallest value at least a share q of the
    values are at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def source_sha256():
    """Content hash of the sources the harness builds, so a result names its
    code even in a checkout without git metadata."""
    digest = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for path in files + [ROOT / "CMakeLists.txt"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclasses.dataclass
class Tally:
    """Messages attempted and failed over every harness process of a run,
    and every problem its output check found."""
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)

    def add(self, log, reference, label):
        self.attempted += log["messages"]
        self.failed += log["failed"]
        self.problems += [f"{label}: {violation}" for violation in log["violations"]]
        if reference is not None and log["digest"] != reference:
            self.problems.append(f"{label}: digest {log['digest']} != reference {reference}")


# ---------------------------------------------------------- end-to-end run

def end_to_end(name, seed, seconds, quick, reference, tally):
    spec = spec_text(name, seed, quick)
    # Calls are spread over a few processes, so that what one process
    # happens to get (memory placement, allocator state, a busy neighbour)
    # cannot set a figure, and the timed processes are interleaved with the
    # set-up ones, so that both are taken over the same stretch of time.
    runs, setup_runs = [], []
    setup_seconds = (0.1 if quick else SETUP_SECONDS) / SETUP_PROCESSES
    for i in range(SETUP_PROCESSES):
        if i % 2 == 0 and len(runs) < PROCESSES:
            runs.append(harness("measure", name, spec, seconds=seconds / PROCESSES))
        setup_runs.append(harness("setup", name, spec, seconds=setup_seconds,
                                  min_reps=SETUP_REPS))
    measured = [out["result"] for out in runs]
    setup = [out["result"] for out in setup_runs]
    for result in measured:
        tally.add(result, reference, "measure")
    for result in setup:
        tally.add(result, None, "setup")

    def pooled(results, key):
        return [v for result in results for v in result[key]]

    def each(results, key):
        return [result[key] for result in results]

    wall = pooled(measured, "wall_s")
    per_call = measured[0]["messages_per_call"]
    samples = {
        "wall_s": summary(wall),
        "cpu_s": summary(pooled(measured, "cpu_s")),
        # A set-up call takes a few ms on router-mix and torus-drain, so one
        # preempted thread is a large share of it, and on a shared host the
        # median call follows the neighbours' load (2.2 ms one hour, 3.6 ms
        # the next on router-mix). The low decile of the calls is the set-up
        # cost with the host's share taken out; extra.setup_call_s keeps
        # their median, quartiles and count.
        "setup_s": summary([low_quantile(pooled(setup, "wall_s"), SETUP_QUANTILE)]),
        # Each process's high-water after its first call; which thread frees
        # what first varies a little, so the highest of them is taken.
        "peak_rss_mb": summary([max(each(measured, "first_call_rss_mb"))]),
        "messages_per_s": summary([per_call / w for w in wall]),
    }
    extra = {"setup_call_s": summary(pooled(setup, "wall_s")),
             "first_call_s": each(measured, "first_call_s"),
             "first_call_rss_mb": each(measured, "first_call_rss_mb")}
    return samples, runs[0]["provenance"], extra


# ------------------------------------------------------------- traced run

def traced_values(call, messages, threads_per_route):
    """Per-layer values of one traced call, from its rollup and counters."""
    layers, counters = call["layers"], call["counters"]

    def total(path):
        return layers[path]["total_ms"] if path in layers else None

    def count(key):
        return counters.get(key, 0)

    worker_ms = total("route-worker") or 0.0
    route_ms = total("routing/route")
    delivery_ms = total("delivery")
    probe_calls = count("traffic.routing.probe_calls")
    values = {
        "graph.oracle_prewarm_ms": total("routing/oracle-prewarm"),
        "core.probe_call_ns": ratio(worker_ms * 1e6, probe_calls),
        "core.memo_ratio": ratio(count("traffic.routing.distinct_probes"), probe_calls),
        "core.bfs_expansion_ns": ratio(worker_ms * 1e6, count("traffic.routing.bfs_expansions")),
        "core.message_route_us": ratio(worker_ms * 1e3, messages),
        "traffic.routing_setup_ms": layers["routing"]["self_ms"] if "routing" in layers else None,
        "traffic.cache_hit_ratio": ratio(
            count("traffic.cache.hits"),
            count("traffic.cache.hits") + count("traffic.cache.misses")),
        "traffic.probe_amortization": ratio(count("traffic.routing.distinct_probes"),
                                            count("traffic.cache.unique_edges")),
        "traffic.route_ms": route_ms,
        "traffic.route_worker_util": ratio(worker_ms, (route_ms or 0.0) * threads_per_route),
        # Only where the frontier block executor runs (it registers the counter).
        "traffic.frontier_batched_share": ratio(
            count("traffic.routing.frontier.batched_messages"), messages)
        if "traffic.routing.frontier.batched_messages" in counters else None,
        "traffic.validate_ms": total("routing/validate"),
        "traffic.compile_ms": total("compile"),
        "traffic.delivery_ms": delivery_ms,
        "traffic.transmission_ns": ratio((delivery_ms or 0.0) * 1e6,
                                         count("traffic.delivery.transmissions")),
        "traffic.admission_ns": ratio((delivery_ms or 0.0) * 1e6,
                                      count("traffic.delivery.admission_events")),
        "obs.unattributed_ms": call["unattributed_ms"],
    }
    for key in ("traffic.routing.probe_calls", "traffic.routing.distinct_probes",
                "traffic.routing.bfs_expansions", "traffic.delivery.transmissions",
                "traffic.delivery.sim_steps"):
        values[key] = count(key)
    cells = call["cells_ms"]
    if cells:  # scenario workloads: the runner's cells
        scenario_ms = total("scenario")
        values["scenario.cell_ms_p50"] = statistics.median(cells)
        values["scenario.cell_ms_max"] = max(cells)
        values["scenario.worker_idle_share"] = 1.0 - sum(cells) / (scenario_ms * THREADS)
        values["scenario.reporter_ms"] = call["reporter_ms"]
    return values


def per_layer(name, seed, seconds, quick, reference, tally):
    spec = spec_text(name, seed, quick)
    traced = harness("trace", name, spec, seconds=seconds)
    layers_out = harness("layers", name, spec, reps=2 if quick else LAYER_REPS,
                         work_dir=BUILD_DIR)
    t, iso = traced["result"], layers_out["result"]
    tally.add(t["untraced"], reference, "untraced")
    tally.add(t["traced_check"], reference, "traced")
    if t["traced_check"]["digest"] != t["untraced"]["digest"]:
        tally.problems.append("traced digest differs from untraced digest")

    is_scenario = WORKLOADS[name].entry == "scenario"
    messages = t["untraced"]["messages"] // t["untraced"]["calls"]
    per_call = [traced_values(call, messages, 1 if is_scenario else THREADS)
                for call in t["traced"]]
    samples = {key: summary([v.get(key) for v in per_call]) for key in per_call[0]}
    for key, field in ISOLATED.items():
        samples[key] = summary(iso[field])
    # Traced wall as a percentage of the untraced wall of the same pair:
    # 100 means tracing costs nothing.
    samples["obs.trace_overhead_pct"] = summary(
        [100.0 * c["wall_s"] / u for c, u in zip(t["traced"], t["untraced_wall_s"])])
    samples = {key: value for key, value in samples.items() if value is not None}
    extra = {"traced_wall_s": summary([c["wall_s"] for c in t["traced"]]),
             "untraced_wall_s": summary(t["untraced_wall_s"])}
    return samples, traced["provenance"], extra


# -------------------------------------------------------------------- run

def load_contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def units(contract):
    """Unit of every metric the benchmark derives."""
    listed = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    return {**UNLISTED_UNITS, **listed}


def bench_run(name, seed, seconds, trace, quick):
    """One benchmark run; returns (result line, full record)."""
    build()
    tally = Tally()
    reference = reference_digest(name, seed, quick)
    runner = per_layer if trace else end_to_end
    samples, provenance, extra = runner(name, seed, seconds, quick, reference, tally)
    if tally.problems:  # a run that fails its output check fails all its messages
        tally.failed = tally.attempted
    if not trace:
        samples["error_rate"] = summary([tally.failed / tally.attempted])

    contract = load_contract()
    unit_of = units(contract)
    names = [m["name"] for m in contract["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in samples]
    if missing:
        raise BenchError(f"{name}: no value for {', '.join(missing)}")
    line = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": samples[n]["median"], "unit": unit_of[n]} for n in names},
    }
    record = {
        "schema": "faultroute.perfbench.v1",
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "quick": quick,
        "entry": WORKLOADS[name].entry, "spec": spec_text(name, seed, quick),
        "threads": THREADS, "nproc": os.cpu_count(),
        "provenance": provenance, "source_sha256": source_sha256(),
        "reference_digest": reference, "problems": tally.problems,
        "metrics": {n: dict(s, unit=unit_of[n]) for n, s in sorted(samples.items())},
        "extra": extra, "result": line,
    }
    return line, record


def print_report(record):
    print(f"# {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{record['provenance']['build_type']} {record['provenance']['git_hash']}  "
          f"threads {record['threads']}  nproc {record['nproc']}")
    for problem in record["problems"]:
        print(f"! {problem}")
    for key, s in record["metrics"].items():
        print(f"{key:34s} {s['median']:>16.6g} {s['unit']:6s} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")


def write_record(record):
    results = BUILD_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
                      f"{'-quick' if record['quick'] else ''}.json")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


# ------------------------------------------------------------ steadiness

def steadiness(workloads, runs, seconds, seed, quick):
    """Two sets of `runs` runs of the same build, each run on its own seed.
    For every end-to-end metric and workload, reports each set's median and
    quartile spread and whether the second median is within the metric's
    bound of the first."""
    contract = load_contract()
    steady = True
    report = {}
    for name in workloads:
        sets = []
        for first_seed in (seed + 1, seed + 1 + runs):
            values = {}
            for s in range(first_seed, first_seed + runs):
                args = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                        "--seed", str(s), "--seconds", str(seconds), "--trace", "0"]
                out = subprocess.run(args + (["--quick"] if quick else []), cwd=ROOT,
                                     capture_output=True, text=True, check=False)
                if out.returncode != 0:
                    raise BenchError(f"steadiness run {name} seed {s} failed:\n{out.stderr}")
                line = json.loads(out.stdout.strip().splitlines()[-1])
                for key, metric in line["metrics"].items():
                    values.setdefault(key, []).append(metric["value"])
            sets.append(values)
        report[name] = {}
        for metric in contract["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            first, second = (summary(v[key]) for v in sets)
            spreads = [(s["q3"] - s["q1"]) / s["median"] for s in (first, second)]
            change = (second["median"] - first["median"]) / first["median"]
            worse = change if metric["better"] == "lower" else -change
            ok = worse <= bound
            steady = steady and ok
            report[name][key] = {"first": first["median"], "second": second["median"],
                                 "spreads": spreads, "change": change, "bound": bound,
                                 "agree": ok}
            print(f"{name:17s} {key:15s} {first['median']:12.6g} {second['median']:12.6g} "
                  f"spread {spreads[0]:6.3f} {spreads[1]:6.3f}  change {change:+.3f}  "
                  f"bound {bound}  {'ok' if ok else 'NOT STEADY'}")
    print(json.dumps({"steady": steady, "runs": runs, "workloads": report}))
    return 0 if steady else 1


def write_reference():
    """Regenerates perfbench/reference.json from threads-1 runs at the
    default seed."""
    build()
    reference = {}
    for name in WORKLOADS:
        spec = spec_text(name, DEFAULT_SEED, False, threads=1)
        out = harness("measure", name, spec, seconds=0, min_reps=0)
        if out["result"]["violations"]:
            raise BenchError(f"{name}: {out['result']['violations']}")
        reference[name] = {"spec": spec, "digest": out["result"]["digest"]}
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.quick else load_contract()["run_seconds"])
    try:
        if args.write_reference:
            return write_reference()
        if args.steadiness:
            return steadiness(args.workload or sorted(WORKLOADS), args.runs, seconds,
                              args.seed, args.quick)
        if not args.workload or len(args.workload) != 1:
            parser.error("give exactly one --workload")
        line, record = bench_run(args.workload[0], args.seed, seconds, args.trace, args.quick)
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    write_record(record)
    print_report(record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
