#!/usr/bin/env bash
# Sanitizer gate: configures a dedicated build tree with UBIGRAPH_SANITIZE
# (thread by default — catches data races in the parallel runtime and the
# obs shard merging) and runs the unit-, integration- and fuzz-labeled test
# suites under it. The unit label includes the fork-join team's semantics
# tests (nested and concurrent forks through real kernels, exception
# propagation); the integration label notably covers the
# incremental-maintenance differential tests, which drive every engine at
# 1/2/4/8 threads and are the main TSan coverage for the stream layer, and
# the corpus differential suite (corpus_differential_test), which sweeps
# every kernel family over corpus shape x representation x thread count;
# the fuzz label runs every parser and decoder on hostile input.
#
# Runtime (thread, 4-core host): ~4 min from a cold build tree, almost all
# of it compiling; the ~965 tests take ~25 s.
#
# Tests run in a randomized order so inter-test ordering dependencies (shared
# global state, leftover temp files) surface here instead of in a flaky
# downstream run; until-pass:1 keeps the invocation future-proof against a
# repeat-count bump without changing today's single-run semantics.
#
# Usage: ci/sanitize.sh [thread|address|undefined] [ctest-label-regex]
set -euo pipefail

SANITIZER="${1:-${UBIGRAPH_SANITIZE:-thread}}"
LABEL="${2:-unit|integration|fuzz}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build-${SANITIZER}san"

cmake -S "$ROOT" -B "$BUILD_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DUBIGRAPH_SANITIZE="$SANITIZER" \
  -DUBIGRAPH_BUILD_BENCHMARKS=OFF \
  -DUBIGRAPH_BUILD_EXAMPLES=OFF

cmake --build "$BUILD_DIR" -j"$(nproc)"

# Perf-labeled tests are timing assertions and are meaningless under a
# sanitizer's 5-20x slowdown; the label filter keeps them out by design.
ctest --test-dir "$BUILD_DIR" -L "$LABEL" --output-on-failure -j"$(nproc)" \
  --schedule-random --repeat until-pass:1
