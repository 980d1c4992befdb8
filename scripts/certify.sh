#!/usr/bin/env bash
#
# Obliviousness certification gate.
#
# Builds the repo, runs the leakage-labelled test suite (differential
# trace fuzzing, statistical fixed-vs-random checks, golden-trace
# snapshots) once per kernel precision (SECEMB_PRECISION=f32|bf16|int8),
# runs the kernel gate under both the scalar and the widest GEMM tier
# (SECEMB_ISA) crossed with every precision, then rebuilds the verify
# harness under ASan+UBSan and re-runs a full secemb-verify sweep under
# instrumentation. The precision cross proves the low-precision tiers
# keep canonical traces bit-identical — quantization is a latency knob,
# never part of the security argument. Then chains into scripts/chaos.sh so the
# fault-injected serving path is certified alongside the fault-free
# generators, runs scripts/reachability.sh (no library function that only
# tests reach; its own build-reach and build-reach-e2ebench trees), and
# ends with the bench trajectory gate.
#
# Usage:
#   scripts/certify.sh [--skip-asan] [--skip-chaos] [--skip-bench]
#                      [--seed N]
#
# Exits non-zero if any generator fails certification.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# Release builds go to their own tree, so the default RelWithDebInfo
# build/ keeps its configuration.
BUILD_DIR="${REPO_ROOT}/build-release"
ASAN_BUILD_DIR="${REPO_ROOT}/build-asan"
SEED=2024
SKIP_ASAN=0
SKIP_CHAOS=0
SKIP_BENCH=0

while [[ $# -gt 0 ]]; do
    case "$1" in
        --skip-asan) SKIP_ASAN=1; shift ;;
        --skip-chaos) SKIP_CHAOS=1; shift ;;
        --skip-bench) SKIP_BENCH=1; shift ;;
        --seed) SEED="$2"; shift 2 ;;
        *) echo "unknown flag: $1" >&2; exit 2 ;;
    esac
done

echo "== [1/9] Build (warnings are errors) =="
cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-Werror
cmake --build "${BUILD_DIR}" -j"$(nproc)"

PRECISIONS=(f32 bf16 int8)

echo "== [2/9] Leakage test suite per precision (ctest -L leakage) =="
for prec in "${PRECISIONS[@]}"; do
    echo "-- leakage @ SECEMB_PRECISION=${prec} --"
    SECEMB_PRECISION="${prec}" ctest --test-dir "${BUILD_DIR}" -L leakage \
        --output-on-failure
done

echo "== [3/9] Kernel gate: forced scalar tier x each precision =="
for prec in "${PRECISIONS[@]}"; do
    echo "-- kernels @ SECEMB_ISA=scalar SECEMB_PRECISION=${prec} --"
    SECEMB_ISA=scalar SECEMB_PRECISION="${prec}" \
        ctest --test-dir "${BUILD_DIR}" -L kernels --output-on-failure
done

echo "== [4/9] Kernel gate: widest supported tier x each precision =="
for prec in "${PRECISIONS[@]}"; do
    echo "-- kernels @ widest tier, SECEMB_PRECISION=${prec} --"
    env -u SECEMB_ISA SECEMB_PRECISION="${prec}" \
        ctest --test-dir "${BUILD_DIR}" -L kernels --output-on-failure
done

echo "== [5/9] Full certification sweep per precision (secemb-verify, seed ${SEED}) =="
# --recovered adds the durable-tier arm: crash-recovered RAW ORAM
# instances must certify exactly like fresh ones. Every precision tier
# must certify identically: generator traces are recorded above the
# GEMM, so SECEMB_PRECISION cannot change them.
for prec in "${PRECISIONS[@]}"; do
    echo "-- secemb-verify @ SECEMB_PRECISION=${prec} --"
    SECEMB_PRECISION="${prec}" "${BUILD_DIR}/src/verify/secemb-verify" \
        --seed="${SEED}" --recovered \
        --json="${BUILD_DIR}/certify_report_${prec}.json"
    echo "report: ${BUILD_DIR}/certify_report_${prec}.json"
done

if [[ "${SKIP_ASAN}" -eq 1 ]]; then
    echo "== [6/9] ASan verify run skipped (--skip-asan) =="
else
    echo "== [6/9] ASan+UBSan instrumented verify sweep =="
    cmake -S "${REPO_ROOT}" -B "${ASAN_BUILD_DIR}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSECEMB_SANITIZE=address
    cmake --build "${ASAN_BUILD_DIR}" -j"$(nproc)" --target secemb-verify
    "${ASAN_BUILD_DIR}/src/verify/secemb-verify" --seed="${SEED}"
fi

if [[ "${SKIP_CHAOS}" -eq 1 ]]; then
    echo "== [7/9] Chaos gate skipped (--skip-chaos) =="
else
    echo "== [7/9] Chaos gate (scripts/chaos.sh) =="
    if [[ "${SKIP_ASAN}" -eq 1 ]]; then
        "${REPO_ROOT}/scripts/chaos.sh" --skip-sanitizers
    else
        "${REPO_ROOT}/scripts/chaos.sh"
    fi
fi

echo "== [8/9] Reachability: no library code only tests reach (scripts/reachability.sh) =="
"${REPO_ROOT}/scripts/reachability.sh"

if [[ "${SKIP_BENCH}" -eq 1 ]]; then
    echo "== [9/9] Bench trajectory skipped (--skip-bench) =="
else
    echo "== [9/9] Bench trajectory (scripts/bench_all.sh --quick) =="
    # Quick workloads: the gate cares about regressions, not about
    # paper-grade numbers. Gates automatically iff a baseline summary is
    # checked in at baselines/BENCH_baseline.json.
    "${REPO_ROOT}/scripts/bench_all.sh" --quick --skip-build
fi

echo "CERTIFICATION GATE PASSED"
