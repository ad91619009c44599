// Parser and gate tests for the bench_compare logic (bench/bench_compare_lib):
// malformed BENCH.json must fail loudly instead of silently dropping records,
// and the regression gate must honor the noise-aware allowance and the
// work-counter requirement ci/perf_smoke.sh enforces.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "../bench/bench_compare_lib.h"

namespace ubigraph::benchcmp {
namespace {

constexpr char kGoodRecord[] = R"([
  {"name": "BM_X/12/1", "kernel": "bfs", "mode": "hybrid", "graph": "rmat12",
   "threads": 1, "median_real_ns": 1000.0, "edges_per_second": 1e9,
   "bytes_per_edge": 0, "work_items": 32768, "repeats": 4, "rel_spread": 0.05}
])";

std::map<std::string, Record> MustLoad(const std::string& text) {
  std::map<std::string, Record> out;
  Status st = LoadRecords(text, "test.json", &out);
  EXPECT_TRUE(st.ok()) << st.message();
  return out;
}

TEST(BenchCompareLoadTest, ParsesAllFields) {
  auto records = MustLoad(kGoodRecord);
  ASSERT_EQ(records.size(), 1u);
  const Record& r = records.at("BM_X/12/1");
  EXPECT_EQ(r.kernel, "bfs");
  EXPECT_EQ(r.mode, "hybrid");
  EXPECT_EQ(r.graph, "rmat12");
  EXPECT_EQ(r.threads, 1);
  EXPECT_DOUBLE_EQ(r.median_real_ns, 1000.0);
  EXPECT_DOUBLE_EQ(r.work_items, 32768.0);
  EXPECT_EQ(r.repeats, 4);
  EXPECT_DOUBLE_EQ(r.rel_spread, 0.05);
}

TEST(BenchCompareLoadTest, EmptyFileIsAnError) {
  std::map<std::string, Record> out;
  Status st = LoadRecords("", "empty.json", &out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("empty.json"), std::string::npos);
}

TEST(BenchCompareLoadTest, NonArrayTopLevelIsAnError) {
  std::map<std::string, Record> out;
  Status st = LoadRecords("{\"name\": \"x\"}", "obj.json", &out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not a JSON array"), std::string::npos);
}

TEST(BenchCompareLoadTest, EmptyArrayIsOkButEmpty) {
  EXPECT_TRUE(MustLoad("[]").empty());
}

TEST(BenchCompareLoadTest, MissingRequiredFieldFailsLoudly) {
  // Drop work_items: older silently-skipping behavior would just default it.
  std::map<std::string, Record> out;
  Status st = LoadRecords(
      R"([{"name": "BM_X", "kernel": "bfs", "threads": 1,
           "median_real_ns": 1.0, "edges_per_second": 1.0,
           "bytes_per_edge": 0}])",
      "cur.json", &out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("work_items"), std::string::npos);
  EXPECT_NE(st.message().find("BM_X"), std::string::npos);
}

TEST(BenchCompareLoadTest, MistypedFieldFailsLoudly) {
  std::map<std::string, Record> out;
  Status st = LoadRecords(
      R"([{"name": "BM_X", "kernel": "bfs", "threads": "one",
           "median_real_ns": 1.0, "edges_per_second": 1.0,
           "bytes_per_edge": 0, "work_items": 1}])",
      "cur.json", &out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("threads"), std::string::npos);
}

TEST(BenchCompareLoadTest, NanRateIsRejected) {
  // JSON has no NaN literal; a hand-edited or corrupted file smuggling one
  // in must fail the parse, not flow into the ratio math.
  std::map<std::string, Record> out;
  Status st = LoadRecords(
      R"([{"name": "BM_X", "kernel": "bfs", "threads": 1,
           "median_real_ns": 1.0, "edges_per_second": NaN,
           "bytes_per_edge": 0, "work_items": 1}])",
      "cur.json", &out);
  EXPECT_FALSE(st.ok());
}

TEST(BenchCompareLoadTest, UnknownKeysAreIgnored) {
  auto records = MustLoad(
      R"([{"name": "BM_X", "kernel": "bfs", "threads": 1,
           "median_real_ns": 1.0, "edges_per_second": 1.0,
           "bytes_per_edge": 0, "work_items": 1,
           "future_field": {"nested": [1, 2]}}])");
  EXPECT_EQ(records.size(), 1u);
}

TEST(BenchCompareLoadTest, OptionalVarianceFieldsDefault) {
  // Files written before the variance fields existed still load.
  auto records = MustLoad(
      R"([{"name": "BM_X", "kernel": "bfs", "threads": 1,
           "median_real_ns": 1.0, "edges_per_second": 1.0,
           "bytes_per_edge": 0, "work_items": 1}])");
  EXPECT_EQ(records.at("BM_X").repeats, 1);
  EXPECT_DOUBLE_EQ(records.at("BM_X").rel_spread, 0.0);
}

TEST(BenchCompareLoadTest, LaterRecordsOverrideEarlier) {
  std::map<std::string, Record> out;
  ASSERT_TRUE(LoadRecords(kGoodRecord, "a.json", &out).ok());
  std::string second = kGoodRecord;
  second.replace(second.find("1000.0"), 6, "2000.0");
  ASSERT_TRUE(LoadRecords(second, "b.json", &out).ok());
  EXPECT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out.at("BM_X/12/1").median_real_ns, 2000.0);
}

TEST(BenchCompareLoadTest, RoundTripsThroughFormat) {
  auto records = MustLoad(kGoodRecord);
  auto reloaded = MustLoad(FormatRecords(records));
  ASSERT_EQ(reloaded.size(), 1u);
  EXPECT_DOUBLE_EQ(reloaded.at("BM_X/12/1").median_real_ns, 1000.0);
  EXPECT_DOUBLE_EQ(reloaded.at("BM_X/12/1").rel_spread, 0.05);
}

Record MakeRecord(double ns, double spread = 0.0, double work = 100.0) {
  Record r;
  r.kernel = "k";
  r.median_real_ns = ns;
  r.rel_spread = spread;
  r.work_items = work;
  return r;
}

TEST(BenchCompareGateTest, FlagsRegressionBeyondAllowance) {
  std::map<std::string, Record> base{{"a", MakeRecord(1000)}};
  std::map<std::string, Record> cur{{"a", MakeRecord(1300)}};
  Comparison cmp = Compare(base, cur, CompareOptions{});
  EXPECT_EQ(cmp.compared, 1);
  EXPECT_EQ(cmp.regressions, 1);
  EXPECT_FALSE(cmp.ok());
}

TEST(BenchCompareGateTest, SpreadWidensTheGate) {
  // +30% over baseline, but both runs observed 10% spread: allowance is
  // 25% + 10% + 10% = 45%, so this passes where the quiet-machine case fails.
  std::map<std::string, Record> base{{"a", MakeRecord(1000, 0.10)}};
  std::map<std::string, Record> cur{{"a", MakeRecord(1300, 0.10)}};
  Comparison cmp = Compare(base, cur, CompareOptions{});
  EXPECT_EQ(cmp.regressions, 0);
  EXPECT_TRUE(cmp.ok());
}

TEST(BenchCompareGateTest, MissingWorkItemsFailsWhenRequired) {
  std::map<std::string, Record> base{{"a", MakeRecord(1000)}};
  std::map<std::string, Record> cur{{"a", MakeRecord(1000, 0.0, 0.0)}};
  CompareOptions opts;
  EXPECT_TRUE(Compare(base, cur, opts).ok());
  opts.require_work_items = true;
  Comparison cmp = Compare(base, cur, opts);
  EXPECT_EQ(cmp.work_violations, 1);
  EXPECT_FALSE(cmp.ok());
}

TEST(BenchCompareGateTest, NoOverlapIsNotOk) {
  std::map<std::string, Record> base{{"a", MakeRecord(1000)}};
  std::map<std::string, Record> cur{{"b", MakeRecord(1000)}};
  Comparison cmp = Compare(base, cur, CompareOptions{});
  EXPECT_EQ(cmp.compared, 0);
  EXPECT_EQ(cmp.missing, 1);
  EXPECT_FALSE(cmp.ok());
}

TEST(BenchCompareLoadTest, MemoryFieldsParseAndDefault) {
  auto records = MustLoad(
      R"([{"name": "BM_X", "kernel": "pagerank", "threads": 1,
           "median_real_ns": 1.0, "edges_per_second": 1.0,
           "bytes_per_edge": 0, "work_items": 1,
           "peak_segment_bytes": 4096, "peak_rss_bytes": 1e9},
          {"name": "BM_Old", "kernel": "pagerank", "threads": 1,
           "median_real_ns": 1.0, "edges_per_second": 1.0,
           "bytes_per_edge": 0, "work_items": 1}])");
  EXPECT_DOUBLE_EQ(records.at("BM_X").peak_segment_bytes, 4096.0);
  EXPECT_DOUBLE_EQ(records.at("BM_X").peak_rss_bytes, 1e9);
  // Pre-memory-field files load with zeros (and are never memory-gated).
  EXPECT_DOUBLE_EQ(records.at("BM_Old").peak_segment_bytes, 0.0);
  EXPECT_DOUBLE_EQ(records.at("BM_Old").peak_rss_bytes, 0.0);
}

TEST(BenchCompareLoadTest, NegativeMemoryFieldIsRejected) {
  std::map<std::string, Record> out;
  Status st = LoadRecords(
      R"([{"name": "BM_X", "kernel": "pagerank", "threads": 1,
           "median_real_ns": 1.0, "edges_per_second": 1.0,
           "bytes_per_edge": 0, "work_items": 1,
           "peak_segment_bytes": -5}])",
      "cur.json", &out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("peak_*_bytes"), std::string::npos);
}

TEST(BenchCompareLoadTest, MemoryFieldsRoundTripThroughFormat) {
  auto records = MustLoad(
      R"([{"name": "BM_X", "kernel": "pagerank", "threads": 1,
           "median_real_ns": 1.0, "edges_per_second": 1.0,
           "bytes_per_edge": 0, "work_items": 1,
           "peak_segment_bytes": 4096}])");
  const std::string text = FormatRecords(records);
  // Zero-valued counters stay absent so pre-memory baselines survive a
  // load/format round-trip unchanged.
  EXPECT_EQ(text.find("peak_rss_bytes"), std::string::npos);
  auto reloaded = MustLoad(text);
  EXPECT_DOUBLE_EQ(reloaded.at("BM_X").peak_segment_bytes, 4096.0);
  EXPECT_DOUBLE_EQ(reloaded.at("BM_X").peak_rss_bytes, 0.0);
}

Record MakeMemRecord(double ns, double seg, double rss) {
  Record r = MakeRecord(ns);
  r.peak_segment_bytes = seg;
  r.peak_rss_bytes = rss;
  return r;
}

TEST(BenchCompareGateTest, MemoryGateOffByDefault) {
  // 10x segment-byte growth passes when --gate-memory is not set.
  std::map<std::string, Record> base{{"a", MakeMemRecord(1000, 1000, 0)}};
  std::map<std::string, Record> cur{{"a", MakeMemRecord(1000, 10000, 0)}};
  Comparison cmp = Compare(base, cur, CompareOptions{});
  EXPECT_EQ(cmp.mem_regressions, 0);
  EXPECT_TRUE(cmp.ok());
}

TEST(BenchCompareGateTest, MemoryGateFlagsGrowthBeyondAllowance) {
  std::map<std::string, Record> base{{"a", MakeMemRecord(1000, 1000, 0)}};
  std::map<std::string, Record> cur{{"a", MakeMemRecord(1000, 1400, 0)}};
  CompareOptions opts;
  opts.gate_memory = true;  // default max_mem_regression = 0.30 → 1400 > 1300
  Comparison cmp = Compare(base, cur, opts);
  EXPECT_EQ(cmp.mem_regressions, 1);
  EXPECT_FALSE(cmp.ok());
  EXPECT_NE(cmp.report.find("MEM-REG"), std::string::npos);
  EXPECT_NE(cmp.report.find("peak_segment_bytes"), std::string::npos);
}

TEST(BenchCompareGateTest, MemoryGateWithinAllowancePasses) {
  std::map<std::string, Record> base{{"a", MakeMemRecord(1000, 1000, 1000)}};
  std::map<std::string, Record> cur{{"a", MakeMemRecord(1000, 1200, 1400)}};
  CompareOptions opts;
  opts.gate_memory = true;  // +20% segment bytes < 30%; +40% RSS < 50%
  Comparison cmp = Compare(base, cur, opts);
  EXPECT_EQ(cmp.mem_regressions, 0);
  EXPECT_TRUE(cmp.ok());
}

TEST(BenchCompareGateTest, RssGetsGenerousAllowance) {
  // +40% RSS is noise (allocator slack, page cache); +40% segment bytes is
  // not.
  std::map<std::string, Record> base{{"a", MakeMemRecord(1000, 1000, 1000)}};
  std::map<std::string, Record> cur{{"a", MakeMemRecord(1000, 1400, 1400)}};
  CompareOptions opts;
  opts.gate_memory = true;
  Comparison cmp = Compare(base, cur, opts);
  EXPECT_EQ(cmp.mem_regressions, 1);
  EXPECT_NE(cmp.report.find("peak_segment_bytes"), std::string::npos);
}

TEST(BenchCompareGateTest, MemoryGateSkipsOneSidedCounters) {
  // Counter present only on one side (old baseline, or a bench that stopped
  // reporting): nothing to compare, must not fail.
  std::map<std::string, Record> base{{"a", MakeMemRecord(1000, 0, 0)}};
  std::map<std::string, Record> cur{
      {"a", MakeMemRecord(1000, 1 << 20, 1 << 20)}};
  CompareOptions opts;
  opts.gate_memory = true;
  EXPECT_EQ(Compare(base, cur, opts).mem_regressions, 0);
  EXPECT_EQ(Compare(cur, base, opts).mem_regressions, 0);
}

}  // namespace
}  // namespace ubigraph::benchcmp
