#!/usr/bin/env bash
# Reproduce everything: build, test, and regenerate every table/figure.
#
# Usage: scripts/reproduce.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD="${1:-build}"

cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"

echo "==> running tests"
ctest --test-dir "$BUILD" -j"$(nproc)" 2>&1 | tee test_output.txt | tail -3

JOBS="$(nproc)"
REPORTS="$BUILD/reports"
mkdir -p "$REPORTS"

echo "==> full-matrix parallel sweep ($JOBS jobs)"
# Journaled + resumable: rerunning this script after an interruption
# replays finished jobs from the journal instead of re-simulating
# them. Delete the journal (or the build dir) to force a fresh sweep.
"$BUILD/bench/bench_sweep" --jobs "$JOBS" --quiet \
    --journal "$REPORTS/bench_sweep.jsonl" --resume \
    --json "$REPORTS/bench_sweep.json" \
    --timing-json "$REPORTS/bench_sweep_timing.json" \
    | grep -E "wall time|speedup|replayed|all done"

echo "==> running paper benches (Tables 2-4, Figures 11-18, ablations)"
# One binary per bench/bench_*.cc source in the tree: a reused build
# directory may still hold binaries whose targets were deleted.
for src in bench/bench_*.cc; do
    name="$(basename "$src" .cc)"
    [ "$name" = bench_sweep ] && continue   # already run above
    echo "############ $name ############"
    "$BUILD/bench/$name" --jobs "$JOBS" --json "$REPORTS/$name.json"
done 2>/dev/null | tee bench_output.txt | grep -E "^Reproduces|speedup range"

echo "==> machine-readable results in $REPORTS/*.json"
echo "==> done; see test_output.txt and bench_output.txt"
