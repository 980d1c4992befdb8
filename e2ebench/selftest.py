#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at tiny sizes (about 3 minutes).

    python3 e2ebench/selftest.py

Run from the root of a checkout. Checks that:
  - every workload prints every metric name with its unit, every metric
    BENCHMARK.json declares is a number, and all output checks pass;
  - unmeasurable signals read null, never 0 (ratios without a denominator
    on a workload that bypasses the layer; telemetry counters in a build
    with SECEMB_TELEMETRY=OFF, which this script configures and builds in
    .bench_build/e2ebench-telemetry-off);
  - the spans file parses, and every span's parent exists;
  - a delay planted in one technique's wrapper shows up in that layer's
    metric and in no other layer's;
  - run.py fails, without printing a result, in a directory that holds
    only BENCHMARK.json and e2ebench/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

FAILURES = []


def check(ok, what):
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def tiny(binary, workload, seed=7, seconds=2, extra=()):
    """One traced process at tiny sizes, with its end-to-end metrics."""
    result = run.run_harness(binary, workload, seed, seconds, True,
                             ["--tiny", *extra])
    result["metrics"].update(run.end_to_end([result]))
    return result


def value(result, name):
    return result["metrics"][name]["value"]


def check_names_and_units(workload, result):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    metrics = result["metrics"]
    check(result["attempted"] > 0 and result["failed"] == 0,
          f"{workload}: {result['attempted']} output checks, "
          f"{result['failed']} failed {result['failures']}")
    check(all(isinstance(m.get("unit"), str) and m["unit"]
              and (m["value"] is None or isinstance(m["value"], (int, float)))
              for m in metrics.values()),
          f"{workload}: every metric has a unit and a number or null")
    declared = spec["end_to_end"] + [
        m for m in spec["per_layer"] if m["name"] != "bench.trace_overhead_pct"]
    missing = [m["name"] for m in declared
               if m["name"] not in metrics
               or metrics[m["name"]]["unit"] != m["unit"]
               or metrics[m["name"]]["value"] is None]
    check(not missing, f"{workload}: declared metrics measured with their "
          f"units {missing or ''}")


def check_spans(workload, names):
    path = run.OUT / f"spans-{workload}-seed7.json"
    try:
        spans = json.loads(path.read_text())["spans"]
    except (OSError, ValueError, KeyError) as e:
        check(False, f"{workload}: spans file parses ({e})")
        return
    ids = {s["id"] for s in spans}
    check(bool(spans) and all(s["end_ns"] >= s["start_ns"] for s in spans)
          and all(s["parent"] == 0 or s["parent"] in ids for s in spans),
          f"{workload}: {len(spans)} spans parse, parents exist")
    seen = {s["name"] for s in spans}
    check(names <= seen, f"{workload}: spans include {sorted(names)}")


def check_planted(binary, workload, layer, metric, plant_us, others):
    """A delay planted in `layer`'s wrapper raises `metric` by most of the
    plant per call; the `others` stay put."""
    base = tiny(binary, workload)
    hot = tiny(binary, workload, extra=["--plant", f"{layer}:{plant_us}"])
    rise = value(hot, metric) - value(base, metric)
    print(f"  {workload}: planted {plant_us} us per {layer} call -> "
          f"{metric} +{rise:.3f} ms")
    check(rise > 0.5 * plant_us * 1e-3,
          f"{workload}: planted delay shows in {metric}")
    for other in others:
        a, b = value(base, other), value(hot, other)
        check(a is not None and b is not None and abs(b - a) < 0.25 * rise,
              f"{workload}: {other} unmoved ({a:.3f} -> {b:.3f} ms)")


def check_empty_checkout():
    """Only BENCHMARK.json and e2ebench/: must fail without a result."""
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "dlrm", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    printed_result = any(line.startswith("{")
                         for line in proc.stdout.splitlines())
    check(proc.returncode != 0 and not printed_result,
          f"bare checkout exits {proc.returncode} without a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    binary = run.build()
    print("== names, units, output checks, spans ==")
    dlrm = tiny(binary, "dlrm")
    llm = tiny(binary, "llm")
    serve = tiny(binary, "serve")
    for workload, result in (("dlrm", dlrm), ("llm", llm), ("serve", serve)):
        check_names_and_units(workload, result)
    check_spans("dlrm", {"Inference", "generate"})
    check_spans("llm", {"Prefill", "DecodeStep", "GreedyTokens", "generate"})
    check_spans("serve", {"query", "request", "generate"})

    print("== null, never 0 ==")
    check(value(dlrm, "oram.bucket_accesses") == 0
          and value(dlrm, "oram.buckets_per_access") is None,
          "dlrm: ORAM bucket count 0, buckets per access null")
    check(value(llm, "oblivious.scan_ids_per_call") is None
          and value(llm, "oblivious.scan_ms") is None,
          "llm: scan ids per call and scan ms null")
    check(value(serve, "tensor.gemm_gflop") == 0
          and value(serve, "tensor.weight_cache_hit_ratio") is None,
          "serve: 0 GFLOP, weight-cache hit ratio null")
    off = run.build(run.ROOT / ".bench_build" / "e2ebench-telemetry-off",
                    ["-DSECEMB_TELEMETRY=OFF"])
    result = tiny(off, "dlrm")
    counters = ["tensor.gemm_gflop", "tensor.gemm_gflops",
                "tensor.weight_packs", "tensor.weight_cache_hits",
                "tensor.weight_cache_hit_ratio", "tensor.pool_regions",
                "oblivious.scan_mlanes"]
    check(all(value(result, c) is None for c in counters),
          "SECEMB_TELEMETRY=OFF: counter metrics null")
    check(value(result, "dhe.generate_ms") is not None,
          "SECEMB_TELEMETRY=OFF: span metrics still measured")

    print("== planted delay ==")
    check_planted(binary, "dlrm", "dhe", "dhe.generate_ms", 1000,
                  ["oblivious.scan_ms", "dlrm.mlp_ms"])
    check_planted(binary, "serve", "oram.circuit", "oram.circuit_ms", 5000,
                  ["oram.path_ms", "oram.proxy_ms", "store.raw_oram_ms",
                   "oblivious.scan_ms"])

    print("== bare checkout ==")
    check_empty_checkout()

    print(f"selftest: {'FAILED ' + str(len(FAILURES)) if FAILURES else 'ok'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
