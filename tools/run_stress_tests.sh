#!/usr/bin/env bash
# Reruns the concurrency-sensitive test suites many times under an
# oversubscribed ctest, to shake out flakes that a quiet single run of
# the tier-1 suite does not show (lost races in the buffer-pool cap,
# serving shutdown, plan/fusion parity under thread churn):
#
#   tools/run_stress_tests.sh [N] [extra ctest args...]
#
# Each selected test is repeated until it fails or has passed N times
# (default 20), with 2 x nproc tests running at once. Builds into
# build-stress by default (override with BUILD_DIR=), so the regular
# build stays untouched. Not part of tier-1: it takes minutes.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-stress}"
REPEATS="${1:-20}"
if [[ $# -gt 0 ]]; then shift; fi

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)"

ctest --test-dir "$BUILD_DIR" --output-on-failure \
  --repeat "until-fail:$REPEATS" -j "$((2 * $(nproc)))" \
  -R 'BufferPool|Serving|Plan|PlanFusion|EdgeAttention' "$@"
