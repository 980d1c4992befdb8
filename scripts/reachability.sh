#!/usr/bin/env bash
#
# Reachability check: no library function that only tests reach.
#
# Builds every production binary -- the benches (build-reach/bench), the
# examples, secemb-verify, and the e2ebench harness configured from the
# unchanged e2ebench/CMakeLists.txt (build-reach-e2ebench) -- with
# -fno-inline -ffunction-sections -fdata-sections, linked with
# -Wl,--gc-sections. A library function then survives in a binary only
# if a chain of calls from that binary's main reaches it.
#
# It lists every strong function (nm type T) of the libsecemb_*.a
# archives that no production binary keeps and that no pattern of
# scripts/reachability_allowlist.txt matches, and fails if the list is
# not empty. It also fails on an allowlist pattern that matches no
# unreached function, so the allowlist cannot outlive what it excuses.
#
# -fno-inline matters: at -O2 a private helper inlined into its own
# translation unit leaves an out-of-line copy that nothing calls. With
# every call kept as a call, "kept" means "reachable from a production
# main".
#
# What it cannot judge:
#   - header-inline and template functions: they are weak symbols (nm
#     type W), emitted in every object that uses them, so the inventory
#     skips them;
#   - virtual overrides: a live vtable keeps every slot it names, so an
#     override no caller reaches still counts as kept;
#   - functions the compiler merges with an identical body: a merged
#     alias is kept whenever its twin is.
#
# Usage: scripts/reachability.sh
# Builds with -j$(nproc); the two trees take several minutes from cold.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${REPO_ROOT}/build-reach"
E2E_BUILD_DIR="${REPO_ROOT}/build-reach-e2ebench"
ALLOWLIST="${REPO_ROOT}/scripts/reachability_allowlist.txt"
JOBS="$(nproc)"

CXX_FLAGS="-fno-inline -ffunction-sections -fdata-sections"
LINK_FLAGS="-Wl,--gc-sections"

configure() {
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="${CXX_FLAGS}" \
        -DCMAKE_EXE_LINKER_FLAGS="${LINK_FLAGS}" >/dev/null
}

configure "${REPO_ROOT}" "${BUILD_DIR}"
cmake --build "${BUILD_DIR}/bench_build" -j"${JOBS}"
cmake --build "${BUILD_DIR}/examples" -j"${JOBS}"
cmake --build "${BUILD_DIR}" -j"${JOBS}" --target secemb-verify
configure "${REPO_ROOT}/e2ebench" "${E2E_BUILD_DIR}"
cmake --build "${E2E_BUILD_DIR}" -j"${JOBS}" --target secemb-e2ebench

BINARIES=("${BUILD_DIR}"/bench/* "${BUILD_DIR}"/examples/*
          "${BUILD_DIR}/src/verify/secemb-verify"
          "${E2E_BUILD_DIR}/secemb-e2ebench")
PROD=()
for bin in "${BINARIES[@]}"; do
    [[ -f "${bin}" && -x "${bin}" ]] && PROD+=("${bin}")
done

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

# nm -C prints "<address> <type> <demangled name>"; keep the name whole,
# since it may hold spaces.
strip_addr() { sed -E 's/^[0-9a-f]+ [A-Za-z] //'; }

find "${BUILD_DIR}/src" -name 'libsecemb_*.a' -print0 \
    | xargs -0 nm -C --defined-only 2>/dev/null \
    | grep -E '^[0-9a-f]+ T ' | strip_addr | sort -u >"${WORK}/library"
for bin in "${PROD[@]}"; do
    nm -C --defined-only "${bin}" | grep -E '^[0-9a-f]+ [TtWw] ' | strip_addr
done | sort -u >"${WORK}/kept"
comm -23 "${WORK}/library" "${WORK}/kept" >"${WORK}/unreached"
grep -vE '^[[:space:]]*(#|$)' "${ALLOWLIST}" >"${WORK}/patterns" || true

grep -vEf "${WORK}/patterns" "${WORK}/unreached" >"${WORK}/reported" || true
STALE=()
while IFS= read -r pattern; do
    grep -qE -- "${pattern}" "${WORK}/unreached" || STALE+=("${pattern}")
done <"${WORK}/patterns"

checked=$(wc -l <"${WORK}/library")
kept=$(comm -12 "${WORK}/library" "${WORK}/kept" | wc -l)
allowed=$(( $(wc -l <"${WORK}/unreached") - $(wc -l <"${WORK}/reported") ))
reported=$(wc -l <"${WORK}/reported")
echo "reachability: ${checked} library functions checked over ${#PROD[@]}" \
     "production binaries: ${kept} kept, ${allowed} allowlisted," \
     "${reported} unreached"

status=0
if [[ "${reported}" -gt 0 ]]; then
    echo "Library functions no production binary reaches (delete them," \
         "or name them in ${ALLOWLIST#"${REPO_ROOT}/"} with a reason):"
    sed 's/^/  /' "${WORK}/reported"
    status=1
fi
if [[ "${#STALE[@]}" -gt 0 ]]; then
    echo "Allowlist patterns that match no unreached function (remove them):"
    printf '  %s\n' "${STALE[@]}"
    status=1
fi
exit "${status}"
