#!/usr/bin/env bash
# Builds the tree with sanitizers and runs the ctest suite under them:
#
#   pass 1: ASan+UBSan  (-DLASAGNE_SANITIZE=address) — full suite, shakes
#           out the fault-tolerance / recovery paths
#   pass 2: TSan        (-DLASAGNE_SANITIZE=thread)  — the thread-pool /
#           parallel-kernel / determinism tests, plus the observability
#           layer (striped counters, per-thread trace rings), the
#           autograd op tests and gradient checks (every op's forward
#           and backward under the pool), the buffer pool (concurrent
#           acquire/release under ParallelFor), the parallel Dropout stream and the row-parallel edge ops
#
#   tools/run_sanitized_tests.sh [extra ctest args...]
#
# Uses separate build directories (build-sanitize and build-tsan by
# default; override with BUILD_DIR= / TSAN_BUILD_DIR=) so the regular
# build stays untouched. Set LASAGNE_SKIP_TSAN=1 to run only pass 1
# (e.g. on toolchains without TSan support).
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-sanitize}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-$REPO_ROOT/build-tsan}"

# -- pass 1: ASan+UBSan, full suite ----------------------------------------
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
  -DLASAGNE_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error keeps CI signal crisp; detect_leaks stays on by default.
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"

# -- pass 2: TSan, parallel-kernel tests -----------------------------------
if [[ "${LASAGNE_SKIP_TSAN:-0}" == "1" ]]; then
  echo "LASAGNE_SKIP_TSAN=1: skipping TSan pass"
  exit 0
fi

cmake -B "$TSAN_BUILD_DIR" -S "$REPO_ROOT" \
  -DLASAGNE_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_BUILD_DIR" -j "$(nproc)"

# Exercise the pool with more threads than cores so TSan sees real
# interleavings even on small CI machines.
LASAGNE_NUM_THREADS="${LASAGNE_NUM_THREADS:-4}" \
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure \
  -R 'ThreadPool|Parallel|Determinism|Obs|Autograd|GradCheck|BufferPool|BlockedKernel|FusedOp|Inference|Serving|Plan|PlanFusion|EdgeAttention|SpGemm|DropoutStream|EdgeOpParity' "$@"
