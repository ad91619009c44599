#!/usr/bin/env bash
# Perf smoke gate: runs the perf-labeled ctest suite, builds and smoke-runs
# the end-to-end benchmark (perfbench/ is its own CMake package that the
# top-level build never compiles, so a library API change could otherwise
# break it unseen), then runs the small-graph (scale-12) slice of the
# benchmarks. It fails if any benchmark's median real time regressed more
# than the noise-aware allowance (25% + both runs' observed rel_spread)
# against the checked-in ci/perf_baseline.json, or if any current record is
# missing its machine-independent work counter (--require-work-items), or if
# a memory counter shared by baseline and current (peak_segment_bytes, and
# more loosely peak_rss_bytes) grew past its gate (--gate-memory) — the
# out-of-core records must stay out-of-core. The scale-12 slice includes
# non-RMAT corpus shapes (BM_BfsHybridRoad on the road lattice,
# BM_PageRankPullLfr on the LFR community graph), so the gate is not blind to
# locality regressions that an RMAT-only smoke would miss. It also times the
# edge-list, Matrix Market and TSV parsers on RMAT-12 text (perf_io), so the
# load path is gated as well as the kernels.
#
# Wall-clock baselines are machine-relative: regenerate on the machine that
# enforces the gate with
#   ci/perf_smoke.sh --update-baseline
#
# Usage: ci/perf_smoke.sh [--update-baseline] [build-dir]
set -euo pipefail

UPDATE=0
if [[ "${1:-}" == "--update-baseline" ]]; then
  UPDATE=1
  shift
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
BASELINE="$ROOT/ci/perf_baseline.json"
MAX_REGRESSION="${UBIGRAPH_PERF_MAX_REGRESSION:-0.25}"
# Repeat each benchmark so the comparison uses a median, not one noisy run;
# the reporter discards the first repetition as warmup and publishes the
# remaining runs' rel_spread alongside the median.
BENCH_FLAGS=(--benchmark_filter='/12/' --benchmark_min_time=0.05
             --benchmark_repetitions=5 --benchmark_report_aggregates_only=false)
SMOKE_BINARIES=(perf_traversal perf_pagerank perf_components perf_csr_build
                perf_reorder perf_shortest_path perf_centrality
                perf_incremental perf_query perf_sharded perf_io)

cmake -S "$ROOT" -B "$BUILD_DIR" > /dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target \
  "${SMOKE_BINARIES[@]}" bench_compare obs_overhead_test > /dev/null

# Timing-sensitive test suite (obs overhead budget, etc.).
ctest --test-dir "$BUILD_DIR" -L perf --output-on-failure

# Every end-to-end workload at tiny scale must answer correctly, and a
# corrupted answer must be caught.
python3 "$ROOT/perfbench/run.py" --smoke

OUTS=()
for bin in "${SMOKE_BINARIES[@]}"; do
  out="$BUILD_DIR/BENCH_smoke_${bin}.json"
  echo "== $bin ${BENCH_FLAGS[*]}"
  (cd "$BUILD_DIR" && UBIGRAPH_BENCH_OUT="$out" UBIGRAPH_OBS_OUT=/dev/null \
      "./bench/$bin" "${BENCH_FLAGS[@]}" > /dev/null)
  OUTS+=("$out")
done

if [[ "$UPDATE" == 1 ]]; then
  "$BUILD_DIR/bench/bench_compare" --write-baseline "$BASELINE" "${OUTS[@]}"
  echo "perf_smoke: baseline updated at $BASELINE"
  exit 0
fi

if [[ ! -f "$BASELINE" ]]; then
  echo "perf_smoke: no baseline at $BASELINE — run with --update-baseline first" >&2
  exit 2
fi

"$BUILD_DIR/bench/bench_compare" --require-work-items --gate-memory \
  "$BASELINE" "$MAX_REGRESSION" "${OUTS[@]}"
echo "perf_smoke: OK"
