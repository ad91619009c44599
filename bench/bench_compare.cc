// Merges one or more BENCH.json files and compares them against a checked-in
// baseline, exiting non-zero when any shared benchmark regressed beyond the
// noise-aware allowance (max_regression + both records' rel_spread). With
// --write-baseline the merged measurements replace the baseline instead (no
// comparison). With --require-work-items, any current record whose
// machine-independent work counter is missing-in-effect (<= 0) also fails the
// gate. With --gate-memory, peak_segment_bytes and peak_rss_bytes are gated
// too when both sides report them (RSS gets a more generous allowance; see
// CompareOptions). Malformed input — not a JSON array, missing/mistyped
// required fields, NaN rates — is a hard error (exit 2), never a silent skip.
// Used by ci/perf_smoke.sh.
//
// Usage:
//   bench_compare [--require-work-items] [--gate-memory] <baseline.json> <max_regression> <current.json>...
//   bench_compare --write-baseline <baseline.json> <current.json>...
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench_compare_lib.h"

namespace {

using ubigraph::benchcmp::Compare;
using ubigraph::benchcmp::CompareOptions;
using ubigraph::benchcmp::Comparison;
using ubigraph::benchcmp::FormatRecords;
using ubigraph::benchcmp::LoadRecords;
using ubigraph::benchcmp::Record;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void LoadOrDie(const std::string& path, std::map<std::string, Record>* out) {
  ubigraph::Status st = LoadRecords(ReadFile(path), path, out);
  if (!st.ok()) {
    std::fprintf(stderr, "bench_compare: %s\n", st.message().c_str());
    std::exit(2);
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_compare [--require-work-items] [--gate-memory] "
               "<baseline.json> <max_regression> <current.json>...\n"
               "       bench_compare --write-baseline <baseline.json> "
               "<current.json>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int arg = 1;
  bool write_baseline = false;
  CompareOptions options;
  while (arg < argc && std::strncmp(argv[arg], "--", 2) == 0) {
    if (std::strcmp(argv[arg], "--write-baseline") == 0) {
      write_baseline = true;
    } else if (std::strcmp(argv[arg], "--require-work-items") == 0) {
      options.require_work_items = true;
    } else if (std::strcmp(argv[arg], "--gate-memory") == 0) {
      options.gate_memory = true;
    } else {
      return Usage();
    }
    ++arg;
  }

  if (write_baseline) {
    if (argc - arg < 2) return Usage();
    const std::string baseline_path = argv[arg++];
    std::map<std::string, Record> merged;
    for (; arg < argc; ++arg) LoadOrDie(argv[arg], &merged);
    std::ofstream out(baseline_path);
    if (merged.empty() || !(out << FormatRecords(merged))) {
      std::fprintf(stderr, "bench_compare: could not write baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::printf("bench_compare: wrote %zu record(s) to %s\n", merged.size(),
                baseline_path.c_str());
    return 0;
  }

  if (argc - arg < 3) return Usage();
  std::map<std::string, Record> baseline;
  LoadOrDie(argv[arg++], &baseline);
  options.max_regression = std::atof(argv[arg++]);
  std::map<std::string, Record> current;
  for (; arg < argc; ++arg) LoadOrDie(argv[arg], &current);

  const Comparison cmp = Compare(baseline, current, options);
  std::fputs(cmp.report.c_str(), stdout);
  if (cmp.compared == 0) {
    std::fprintf(stderr, "bench_compare: no overlapping benchmarks\n");
    return 2;
  }
  if (cmp.regressions > 0 || cmp.work_violations > 0 ||
      cmp.mem_regressions > 0) {
    std::fprintf(stderr,
                 "bench_compare: %d benchmark(s) regressed beyond allowance, "
                 "%d missing work counters, %d memory counter(s) grew past "
                 "their gate\n",
                 cmp.regressions, cmp.work_violations, cmp.mem_regressions);
    return 1;
  }
  std::printf(
      "bench_compare: %d benchmark(s) within allowance (base %.0f%% + "
      "per-record spread)%s\n",
      cmp.compared, options.max_regression * 100.0,
      options.require_work_items ? ", all carrying work counters" : "");
  return 0;
}
