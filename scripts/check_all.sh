#!/usr/bin/env bash
# The full local gate, chained in increasing cost order:
#
#   1. tier-1  — configure + build + ctest (the correctness floor)
#   2. asan    — kernel/parser/store tests under ASan+UBSan
#   3. tsan    — parallel engine tests under ThreadSanitizer
#   4. scale   — one 10^6-node packed run with the engine byte budget
#                asserted and a peak-RSS ceiling (scripts/check_scale.sh)
#   5. serve   — job-server end to end: mixed batch with a deadline kill,
#                SIGKILL + restart on the same store (memo crash safety),
#                memo replay byte identity, socket mode (scripts/check_serve.sh)
#   6. regress — bench gate selftest, then a fresh small sweep
#                (scripts/collect_bench.sh) diffed against the committed
#                BENCH_PR.json at loose thresholds. PR sweeps run at tiny
#                parameterizations on shared machines, so the cross-machine
#                comparison only catches order-of-magnitude blowups; the
#                tight default threshold is for same-machine comparisons.
#
#   scripts/check_all.sh [BUILD_DIR]
#
# Set CKP_SKIP_SWEEP=1 to stop after the regression-gate selftest (step 6's
# fresh sweep is the slow part).
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

echo "=== [1/6] tier-1: build + ctest"
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

echo "=== [2/6] ASan+UBSan"
scripts/check_asan.sh

echo "=== [3/6] TSan"
scripts/check_tsan.sh

echo "=== [4/6] memory-lean scale smoke"
scripts/check_scale.sh "$BUILD_DIR"

echo "=== [5/6] job server end to end"
scripts/check_serve.sh "$BUILD_DIR"

echo "=== [6/6] bench regression gate"
scripts/check_bench_regress.sh --selftest "$BUILD_DIR"
if [[ "${CKP_SKIP_SWEEP:-0}" == 1 ]]; then
  echo "CKP_SKIP_SWEEP=1: skipping the fresh sweep comparison"
else
  SWEEP="$(mktemp /tmp/bench_sweep.XXXXXX.json)"
  trap 'rm -f "$SWEEP"' EXIT
  scripts/collect_bench.sh "$BUILD_DIR" "$SWEEP"
  # Loose thresholds: the committed baseline was produced on different
  # hardware; only flag blowups, and ignore sub-50ms rows entirely.
  MAX_RATIO="${MAX_RATIO:-3.0}" MIN_ABS="${MIN_ABS:-0.05}" \
    scripts/check_bench_regress.sh BENCH_PR.json "$SWEEP" "$BUILD_DIR"
fi

echo "check_all OK"
