// BENCH.json loading/merging/comparison logic behind the bench_compare tool,
// split out so tests/bench_compare_test.cc can unit-test the parser's edge
// cases (empty file, missing fields, NaN rates) and the noise-aware
// regression gate without spawning the binary.
//
// Parsing is strict by design: a record with a missing or mistyped required
// field is an error, not a silent skip — a benchmark that drops out of the
// baseline comparison unnoticed is how perf regressions ship ("SoK: The
// Faults in our Graph Benchmarks"). Unknown keys are ignored (the format may
// grow), and `repeats`/`rel_spread` default for files written before the
// variance fields existed.
#pragma once

#include <map>
#include <string>

#include "common/result.h"

namespace ubigraph::benchcmp {

/// One BENCH.json record (see bench/perf_common.h BenchJsonReporter).
struct Record {
  std::string kernel, mode, graph;
  int64_t threads = 1;
  double median_real_ns = 0.0;
  double edges_per_second = 0.0;
  double bytes_per_edge = 0.0;  // 0 for benches that don't report compression
  double work_items = 0.0;      // machine-independent work per kernel run
  int64_t repeats = 1;          // timing samples behind the median
  double rel_spread = 0.0;      // (max-min)/median of those samples
  // Memory footprint counters; 0 when a bench doesn't report them (records
  // written before these fields existed load as 0 and are never gated).
  double peak_segment_bytes = 0.0;  // segment-cache high-water mark
  double peak_rss_bytes = 0.0;      // process RSS high-water mark
};

/// Parses one BENCH.json array into `out` (later records override earlier
/// ones with the same name — the multi-file merge semantics). Fails with
/// ParseError naming `origin` when the document is not a JSON array, an
/// entry is not an object, a required field (name, kernel, threads,
/// median_real_ns, edges_per_second, bytes_per_edge, work_items) is missing
/// or has the wrong type, or any numeric field is non-finite.
Status LoadRecords(const std::string& json_text, const std::string& origin,
                   std::map<std::string, Record>* out);

/// Serializes records as a BENCH.json array (name-sorted, one per line).
std::string FormatRecords(const std::map<std::string, Record>& records);

struct CompareOptions {
  /// Base regression allowance as a fraction of baseline median ns.
  double max_regression = 0.25;
  /// When true, any *current* record with work_items <= 0 fails the gate:
  /// every benchmark in the smoke suite must carry a machine-independent
  /// work counter so rates can be sanity-checked off wall-clock.
  bool require_work_items = false;
  /// When true, memory counters present in BOTH baseline and current (> 0 on
  /// both sides) are gated too: an out-of-core kernel that silently starts
  /// buffering whole partitions again is a regression even if wall-clock
  /// improves. Fields absent from either side are skipped, so old baselines
  /// stay comparable.
  bool gate_memory = false;
  /// Allowed growth for peak_segment_bytes. It is a deterministic byte
  /// counter (cache bookkeeping, not the OS), so the gate is tight-ish.
  double max_mem_regression = 0.30;
  /// Allowed growth for peak_rss_bytes. RSS folds in allocator slack, page
  /// cache sharing, and whatever the process touched earlier, so the
  /// allowance is deliberately generous.
  double max_rss_regression = 0.50;
};

struct Comparison {
  int compared = 0;
  int regressions = 0;
  int missing = 0;           // in baseline but not measured (warned, not fatal)
  int work_violations = 0;   // current records with work_items <= 0
  int mem_regressions = 0;   // memory counters past their gate (gate_memory)
  std::string report;        // human-readable per-benchmark lines

  bool ok() const {
    return regressions == 0 && work_violations == 0 && mem_regressions == 0 &&
           compared > 0;
  }
};

/// Compares current measurements against the baseline. The per-benchmark
/// allowance is noise-aware: max_regression plus both records' rel_spread,
/// so one noisy sample on a busy machine widens its own gate instead of
/// tripping it. Each report line carries the machine-independent work ratio
/// next to the wall-clock ratio — when time moves but work didn't, it's the
/// machine, not the code.
Comparison Compare(const std::map<std::string, Record>& baseline,
                   const std::map<std::string, Record>& current,
                   const CompareOptions& options);

}  // namespace ubigraph::benchcmp
