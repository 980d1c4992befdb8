#!/usr/bin/env python3
"""End-to-end benchmark of SecEmb: one workload per call, in fresh processes.

    python3 e2ebench/run.py --workload dlrm|llm|serve|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
harness (e2ebench/CMakeLists.txt, which compiles the library from src/)
into .bench_build/e2ebench; later calls only re-run the incremental build.

--trace 0 measures the end-to-end metrics with tracing off, in PROCESSES
fresh processes of seconds/PROCESSES each, process k on input seed
seed * 1000 + k. The declared metrics are scaled CPU times. CPU time
leaves out the time the hypervisor gives our CPUs to other guests; each
process's CPU times are then multiplied by PROBE_NOMINAL_MS over its
median memory-probe time (MemoryProbe in harness.h; probe_ms here),
which follows how much of the shared cache and memory bandwidth the
other tenants leave us. Percentiles are taken over the samples of all
the processes pooled, so that each covers the whole run; per-process
values (set-up, memory, throughput) are medians over the processes. Raw
CPU times, wall-clock latencies and throughput are printed beside them.
Every percentile must have at least MIN_TAIL samples beyond it, or the
run fails. --trace 1 then adds one traced process of the full length,
with a forwarding generator around every embedding layer; it prints the
per-layer metrics and the tracing overhead, and writes the spans to
.bench_out/. Every metric is printed by name with its unit; the last
line of standard output is one JSON object with the metrics that
BENCHMARK.json declares for that mode.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
OUT = ROOT / ".bench_out"
BINARY = "secemb-e2ebench"
WORKLOADS = ("dlrm", "llm", "serve")
PROCESSES = 3
MIN_TAIL = 10
# The memory probe's time is its random walk plus PROBE_SWEEP_WEIGHT of
# its sweep: the weight that held dlrm, llm and serve steadiest over 132
# processes in 22 minutes of a changing host. PROBE_NOMINAL_MS is that
# time on the 4-vCPU Xeon host when the other tenants left the shared
# cache alone, so scaled times read as times there.
PROBE_SWEEP_WEIGHT = 0.5
PROBE_NOMINAL_MS = 3.75

# The paper-facing names of the generic end-to-end metrics, per workload.
ALIASES = {
    "dlrm": {
        "scaled_cpu_p50_ms": "dlrm.batch_p50_ms, scaled CPU time",
        "scaled_first_cpu_p50_ms": "the same: a batch returns all at once",
        "scaled_units_per_cpu_s": "dlrm.impressions_per_s, scaled CPU time",
        "latency_p50_ms": "dlrm.batch_p50_ms",
        "latency_p95_ms": "dlrm.batch_p95_ms",
        "throughput_per_s": "dlrm.impressions_per_s",
    },
    "llm": {
        "scaled_cpu_p50_ms": "llm.tbt_p50_ms, scaled CPU time",
        "scaled_first_cpu_p50_ms": "llm.ttft_p50_ms, scaled CPU time",
        "scaled_units_per_cpu_s": "llm.tokens_per_s, scaled CPU time",
        "latency_p50_ms": "llm.tbt_p50_ms",
        "latency_p95_ms": "llm.tbt_p95_ms",
        "first_p50_ms": "llm.ttft_p50_ms",
        "throughput_per_s": "llm.tokens_per_s",
    },
    "serve": {
        "scaled_cpu_p50_ms": "serve.query_p50_ms one at a time, scaled CPU",
        "scaled_first_cpu_p50_ms": "the same: a query's responses share a "
                                   "batch",
        "scaled_units_per_cpu_s": "serve.capacity_qps, scaled CPU time",
        "latency_p50_ms": "serve.query_p50_ms, open loop",
        "latency_p95_ms": "serve.query_p95_ms, open loop",
        "first_p50_ms": "first response p50, open loop",
        "throughput_per_s": "serve.capacity_qps, 4 in flight",
    },
}


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build(build_dir=BUILD, extra_cmake_args=()):
    """Configure (once) and build the harness; returns the binary path."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *extra_cmake_args]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise SystemExit("e2ebench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", BINARY, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("e2ebench: build failed")
    return build_dir / BINARY


def run_harness(binary, workload, seed, seconds, trace, extra=(),
                timeout=170):
    """Run one workload in a fresh process; returns its parsed result."""
    OUT.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch", str(OUT), *extra]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"e2ebench: {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(samples, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    s = sorted(samples)
    pos = q / 100 * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (pos - lo) * (s[hi] - s[lo])


def beyond(samples, q):
    """How many samples lie above their q-th percentile."""
    cut = percentile(samples, q)
    return sum(1 for x in samples if x > cut)


def probe_ms(run):
    """A process's median memory-probe time."""
    s = run["samples"]
    return statistics.median(
        c + PROBE_SWEEP_WEIGHT * w
        for c, w in zip(s["probe_chase_ms"], s["probe_sweep_ms"]))


def end_to_end(runs):
    """Combine the untraced processes of one run into its metrics."""
    # Per process: nominal over measured probe time, below 1 when the
    # other tenants slow the probe down.
    scale = [PROBE_NOMINAL_MS / probe_ms(r) for r in runs]

    def metric(name, power=0):
        return statistics.median(r["metrics"][name]["value"] * k ** power
                                 for r, k in zip(runs, scale))

    def pooled(name, power=0):
        return [x * k ** power for r, k in zip(runs, scale)
                for x in r["samples"][name]]

    scaled_cpu = pooled("cpu_ms", 1)
    scaled_first_cpu = pooled("first_cpu_ms", 1)
    cpu, first_cpu = pooled("cpu_ms"), pooled("first_cpu_ms")
    latency, first = pooled("latency_ms"), pooled("first_ms")
    out = {
        "scaled_cpu_p50_ms": (percentile(scaled_cpu, 50), "ms"),
        "scaled_cpu_p95_ms": (percentile(scaled_cpu, 95), "ms"),
        "scaled_first_cpu_p50_ms": (percentile(scaled_first_cpu, 50), "ms"),
        "scaled_units_per_cpu_s": (metric("units_per_cpu_s", -1), "1/s"),
        "setup_s": (metric("setup_cpu_s", 1), "s"),
        "peak_rss_mb": (metric("peak_rss_mb"), "MB"),
        "host_scale": (statistics.median(scale), "ratio"),
        "cpu_p50_ms": (percentile(cpu, 50), "ms"),
        "cpu_p95_ms": (percentile(cpu, 95), "ms"),
        "first_cpu_p50_ms": (percentile(first_cpu, 50), "ms"),
        "units_per_cpu_s": (metric("units_per_cpu_s"), "1/s"),
        "setup_cpu_s": (metric("setup_cpu_s"), "s"),
        "latency_p50_ms": (percentile(latency, 50), "ms"),
        "latency_p95_ms": (percentile(latency, 95), "ms"),
        "first_p50_ms": (percentile(first, 50), "ms"),
        "throughput_per_s": (metric("throughput_per_s"), "1/s"),
        "setup_wall_s": (metric("setup_wall_s"), "s"),
        "cpu_samples": (len(cpu), "count"),
        "cpu_tail_samples": (beyond(cpu, 95), "count"),
        "first_samples": (len(first_cpu), "count"),
        "first_tail_samples": (beyond(first_cpu, 50), "count"),
        "latency_samples": (len(latency), "count"),
        "latency_tail_samples": (beyond(latency, 95), "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def fmt(value):
    return "null" if value is None else f"{value:.6g}"


def report(workload, seed, seconds, trace, binary):
    """Run, print every metric, return the last-line JSON object."""
    runs = [run_harness(binary, workload, seed * 1000 + k,
                        seconds / PROCESSES, False)
            for k in range(PROCESSES)]
    metrics = end_to_end(runs)
    for name in ("cpu_tail_samples", "first_tail_samples",
                 "latency_tail_samples"):
        if metrics[name]["value"] < MIN_TAIL:
            raise SystemExit(f"e2ebench: {workload}: {name} = "
                             f"{metrics[name]['value']} < {MIN_TAIL}")
    if trace:
        traced = run_harness(binary, workload, seed, seconds, True)
        runs.append(traced)
        base = metrics["scaled_cpu_p50_ms"]["value"]
        with_trace = end_to_end([traced])["scaled_cpu_p50_ms"]["value"]
        for name, m in traced["metrics"].items():
            metrics.setdefault(name, m)
        metrics["bench.trace_overhead_pct"] = {
            "value": 100.0 * (with_trace - base) / base, "unit": "%"}

    print(f"== {workload} seed {seed}, {seconds} s, "
          f"trace {1 if trace else 0} ==")
    aliases = ALIASES[workload]
    for name in sorted(metrics):
        m = metrics[name]
        alias = f"   [{aliases[name]}]" if name in aliases else ""
        print(f"  {name:36s} {fmt(m['value']):>14s} {m['unit']}{alias}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for why in r["failures"]:
            print(f"  FAILED: {why}")
    print(f"  checks: {attempted - failed}/{attempted} passed")

    out = {}
    for spec in declared_metrics(trace):
        m = metrics.get(spec["name"])
        if m is None or m["value"] is None or not math.isfinite(m["value"]):
            raise SystemExit(f"e2ebench: {workload} did not measure "
                             f"{spec['name']}")
        if m["unit"] != spec["unit"]:
            raise SystemExit(f"e2ebench: {spec['name']} unit {m['unit']} "
                             f"!= declared {spec['unit']}")
        out[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": out}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind like an exception: subprocess.run then kills the
    # running harness process and waits for it before this one exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    start = time.monotonic()
    binary = build()
    log(f"build checked in {time.monotonic() - start:.1f} s")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for w in workloads:
        result = report(w, args.seed, args.seconds, args.trace == 1, binary)
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
