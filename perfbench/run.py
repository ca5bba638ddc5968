#!/usr/bin/env python3
"""Benchmark for legcordial: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload search|composite|desk|all \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ``src/``.
The workload's fixed call list (a pass) is repeated until ``--seconds`` have
passed. Every result is checked by ``check.py``; deterministic counters are
compared exactly between passes and with earlier runs of the same code and
seed, recorded under ``.perfbench_out/``. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
the per-layer metrics with ``--trace 1``. The exit code is 0 only when every
call was right and the counters agreed.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("search", "composite", "desk")
SETUP_PROBES = 7


def load_program() -> None:
    """Import legcordial from this checkout's ``src/``, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "legcordial", "__init__.py")):
        sys.exit(f"perfbench: no src/legcordial next to {HERE}; run from a checkout of the repository")
    sys.path[:0] = [SRC, HERE]
    import legcordial

    if not os.path.abspath(legcordial.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported legcordial from {legcordial.__file__}, not from {SRC}")


def code_hash() -> str:
    """Identifies the program and benchmark sources, for comparing counters across runs."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "legcordial"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py") or name == "expected.json":
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop: tracks the machine's speed, not the program's."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> None:
    """Child side of a set-up measurement: import, build the inputs, report ready."""
    load_program()
    import workloads

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.build(workload, seed, OUT)
    print("ready", flush=True)
    wl.close()


def measure_setup(workload: str, seed: int) -> float:
    """Median time from process start to the first timed call, over fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        line = child.stdout.readline()
        times.append(time.perf_counter() - start)
        child.stdout.close()
        if child.wait(timeout=60) != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe failed for {workload}")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Run:
    """Timings, failures and deterministic counters collected over passes."""

    def __init__(self, wl):
        self.wl = wl
        self.latency_ns = [array.array("q") for _ in wl.calls]
        self.calibration_ms: list[float] = []
        self.walls: list[float] = []
        self.rates: dict[str, list[float]] = {"construct": [], "verify": []}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counters: dict = {}  # each counter's value in the first pass that had it
        self.mismatches: list[str] = []
        self.layer_times: list[dict[str, float]] = []

    def one_pass(self, tracer=None) -> float:
        from legcordial.search import RecipeSearchResult, SearchResult

        gc.collect()
        self.calibration_ms.append(calibrate())
        if tracer is not None:
            tracer.reset()
        calls = self.wl.calls
        clock = time.perf_counter_ns
        nodes, base_nodes = [], []
        role_ns = {"construct": 0, "verify": 0}
        role_edges = {"construct": 0, "verify": 0}
        total = 0
        for i, call in enumerate(calls):
            if tracer is not None:
                tracer.request = i
            start = clock()
            try:
                result = call.fn()
            except Exception as exc:  # checked below: refusals are expected results
                result = exc
            elapsed = clock() - start
            total += elapsed
            self.latency_ns[i].append(elapsed)
            if call.role is not None:
                role_ns[call.role] += elapsed
                role_edges[call.role] += call.edges
            try:
                error = call.check(result)
            except Exception as exc:  # malformed output is a wrong result, not a crash
                error = f"{call.kind}: checking the result raised {exc!r}"
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(error)
            found = result[0] if call.kind == "recipe" and isinstance(result, tuple) else result
            if isinstance(found, SearchResult):
                nodes.append(found.nodes)
            elif isinstance(found, RecipeSearchResult):
                base_nodes.append(found.nodes)
        wall = total / 1e9
        self.walls.append(wall)
        for role, ns in role_ns.items():
            if ns and tracer is None:
                self.rates[role].append(role_edges[role] / (ns / 1e9))
        counters = {"search.nodes.per_call": nodes, "search.find_base_nodes.per_call": base_nodes}
        if tracer is not None:
            times, counts = tracer.per_layer()
            counters.update(counts)
            self.layer_times.append(times)
        self.compare(counters)
        return wall

    def compare(self, counters: dict) -> None:
        for key, value in counters.items():
            first = self.counters.setdefault(key, value)
            if first != value:
                self.mismatches.append(f"between passes: {key} {value!r:.200} != {first!r:.200}")

    def repeat(self, until: float, tracer=None) -> None:
        while True:
            self.one_pass(tracer)
            if time.perf_counter() >= until:
                return


def compare_with_earlier_runs(run: Run, workload: str, seed: int) -> None:
    """Exact comparison with the counters of earlier runs of the same code and seed.

    Traced and untraced runs share one record, so tracing must not change a count.
    """
    folder = os.path.join(OUT, "counters", code_hash())
    path = os.path.join(folder, f"{workload}-seed{seed}.json")
    earlier = {}
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
    for key, value in run.counters.items():
        if earlier.setdefault(key, value) != value:
            run.mismatches.append(f"earlier run: {key} {value!r:.200} != {earlier[key]!r:.200}")
    os.makedirs(folder, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(earlier, fh)


def measure(workload: str, seed: int, seconds: float, trace: int) -> int:
    started = time.perf_counter()
    load_program()
    setup_s = measure_setup(workload, seed) if not trace else None
    import tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.build(workload, seed, OUT)
    run = Run(wl)
    try:
        begin = time.perf_counter()
        if not trace:
            run.repeat(begin + seconds)
        else:
            run.repeat(begin + seconds / 2)
            untraced = list(run.walls)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_from = len(run.walls)
                run.repeat(begin + seconds, tracer)
                spans = tracer.dump()
            finally:
                tracer.uninstall()
            traced = run.walls[traced_from:]
    finally:
        wl.close()
    compare_with_earlier_runs(run, workload, seed)

    def rate(role: str) -> float:
        return max(run.rates[role], default=0.0)

    samples = sum(len(x) for x in run.latency_ns)
    by_kind: dict[str, list[float]] = {}
    for call, lat in zip(wl.calls, run.latency_ns):
        by_kind.setdefault(call.kind, []).append(statistics.median(lat) / 1e6)
    per_call_ms = sorted(min(x) / 1e6 for x in run.latency_ns)
    summary = {
        "workload": workload, "seed": seed, "trace": trace, "passes": len(run.walls),
        "calls_per_pass": len(wl.calls), "latency_samples": samples,
        "fail_frac": run.failed / run.attempted,
        "construct_edges_per_s": rate("construct"), "verify_edges_per_s": rate("verify"),
        "run_s": time.perf_counter() - started,
        "pass_wall_median_s": statistics.median(run.walls),
        "calibration_ms": statistics.median(run.calibration_ms),
        "median_ms_by_kind": {k: round(statistics.median(v), 4) for k, v in by_kind.items()},
    }
    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(per_call_ms) / 1e3, "s"),
            "op_p50_ms": (percentile(per_call_ms, 0.50), "ms"),
            "op_p99_ms": (percentile(per_call_ms, 0.99), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = {}
        for name in run.layer_times[0]:
            values = [t[name] for t in run.layer_times]
            if name.endswith("_per_s"):
                metrics[name] = (max(values), "1/s")
            elif name.endswith("_s"):
                metrics[name] = (min(values), "s")
            else:
                metrics[name] = (statistics.median(values), "ratio")
        for name, value in run.counters.items():
            if not isinstance(value, list):
                metrics[name] = (value, "count")
        metrics["construct_edges_per_s"] = (rate("construct"), "edges/s")
        metrics["verify_edges_per_s"] = (rate("verify"), "edges/s")
        metrics["trace.overhead_frac"] = (min(traced) / min(untraced) - 1, "ratio")
        with open(os.path.join(OUT, f"spans-{workload}-seed{seed}.json"), "w") as fh:
            json.dump(spans, fh)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:16.6f} {unit}")
    print("summary " + json.dumps(summary))
    for line in run.errors:
        print(f"perfbench: wrong result: {line}", file=sys.stderr)
    for line in run.mismatches[:10]:
        print(f"perfbench: counter mismatch: {line}", file=sys.stderr)
    correct = run.failed == 0 and not run.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def measure_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if child.returncode != 0 and not lines:
            return child.returncode
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"] and child.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return measure_all(args.seed, args.seconds, args.trace)
    return measure(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
