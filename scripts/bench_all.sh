#!/usr/bin/env bash
#
# Bench-trajectory harness wrapper.
#
# Builds the bench tier and runs secemb-bench-all: every --json-capable
# benchmark in the tier (micro_primitives, srv01_serving, oram01_proxy,
# oc01_paged, oc02_recovery, ver01_certify_cost, perf01_xcheck) runs
# once, the per-binary reports are merged into a machine-annotated
# BENCH_summary.json, and — when a
# baseline summary exists — the new summary is gated against it (fail on
# any shared result >GATE slower).
#
# Usage:
#   scripts/bench_all.sh [--quick] [--skip-build]
#                        [--baseline FILE] [--gate X] [--outdir DIR]
#
# The default baseline is baselines/BENCH_baseline.json if checked in;
# absent baseline means "record trajectory, gate nothing". To freeze the
# current machine's numbers as the new baseline:
#   cp bench_out/BENCH_summary.json baselines/BENCH_baseline.json

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# Release builds go to their own tree, so the default RelWithDebInfo
# build/ keeps its configuration.
BUILD_DIR="${REPO_ROOT}/build-release"
OUTDIR="${REPO_ROOT}/bench_out"
BASELINE="${REPO_ROOT}/baselines/BENCH_baseline.json"
GATE="1.15"
QUICK=()
SKIP_BUILD=0

while [[ $# -gt 0 ]]; do
    case "$1" in
        --quick) QUICK=(--quick); shift ;;
        --skip-build) SKIP_BUILD=1; shift ;;
        --baseline) BASELINE="$2"; shift 2 ;;
        --gate) GATE="$2"; shift 2 ;;
        --outdir) OUTDIR="$2"; shift 2 ;;
        *) echo "unknown flag: $1" >&2; exit 2 ;;
    esac
done

if [[ "${SKIP_BUILD}" -eq 0 ]]; then
    echo "== bench_all: build =="
    cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=Release
    cmake --build "${BUILD_DIR}" -j"$(nproc)" --target \
        secemb-bench-all micro_primitives srv01_serving oram01_proxy \
        oc01_paged oc02_recovery ver01_certify_cost perf01_xcheck
fi

ARGS=(--outdir "${OUTDIR}" --gate "${GATE}")
if [[ -f "${BASELINE}" ]]; then
    echo "== bench_all: gating against ${BASELINE} (gate ${GATE}) =="
    ARGS+=(--baseline "${BASELINE}")
else
    echo "== bench_all: no baseline at ${BASELINE}; recording only =="
fi

"${BUILD_DIR}/bench/secemb-bench-all" "${QUICK[@]+"${QUICK[@]}"}" \
    "${ARGS[@]}"
echo "bench_all: summary at ${OUTDIR}/BENCH_summary.json"
