#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "common/crc32.h"
#include "common/file.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/table.h"

namespace ubigraph {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Invalid("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalid());
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoryPredicatesAgree) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::Corruption("boom");
  Status copy = s;  // NOLINT
  EXPECT_TRUE(copy.IsCorruption());
  EXPECT_EQ(copy.message(), "boom");
  Status assigned;
  assigned = s;
  EXPECT_TRUE(assigned.IsCorruption());
}

TEST(StatusTest, MoveLeavesSourceOk) {
  Status s = Status::IOError("gone");
  Status moved = std::move(s);
  EXPECT_TRUE(moved.IsIOError());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueUnsafe();
  EXPECT_EQ(*v, 5);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::Invalid("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  UG_ASSIGN_OR_RETURN(int h, Half(x));
  UG_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto fail_outer = Quarter(7);
  EXPECT_FALSE(fail_outer.ok());
  auto fail_inner = Quarter(6);  // 6/2=3 is odd
  EXPECT_FALSE(fail_inner.ok());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(9);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBounded(bound), bound);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(77);
  int counts[10] = {};
  const int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kTrials / 10, kTrials / 10 * 0.15);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(3);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleWithoutReplacementAllWhenKExceedsN) {
  Rng rng(3);
  auto sample = rng.SampleWithoutReplacement(5, 10);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(RngTest, SampleWeightedRespectsWeights) {
  Rng rng(13);
  std::vector<double> weights{0.0, 1.0, 3.0};
  int counts[3] = {};
  for (int i = 0; i < 40000; ++i) ++counts[rng.SampleWeighted(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(RngTest, SampleWeightedAllZeroReturnsSize) {
  Rng rng(1);
  std::vector<double> weights{0.0, 0.0};
  EXPECT_EQ(rng.SampleWeighted(weights), weights.size());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(StringsTest, SplitPreservesEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, CaseInsensitiveContains) {
  EXPECT_TRUE(ContainsIgnoreCase("Hello World", "WORLD"));
  EXPECT_TRUE(ContainsIgnoreCase("abc", ""));
  EXPECT_FALSE(ContainsIgnoreCase("abc", "abcd"));
  EXPECT_FALSE(ContainsIgnoreCase("graph", "graphs"));
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foo", "foobar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("bar", "foobar"));
}

TEST(StringsTest, XmlEscapeAllSpecials) {
  EXPECT_EQ(XmlEscape("<a & \"b\" 'c'>"),
            "&lt;a &amp; &quot;b&quot; &apos;c&apos;&gt;");
}

TEST(StringsTest, CsvEscapeOnlyWhenNeeded) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(StringsTest, JsonEscapeControls) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(StringsTest, ParseInt64Strict) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64(" -7 ", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("4.5", &v));
}

TEST(StringsTest, ParseDoubleStrict) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5oops", &v));
}

TEST(TableTest, AsciiRenderingAligned) {
  TextTable t({"name", "count"});
  t.AddRow({"alpha", "1"});
  t.AddCountRow("beta", {12345});
  std::string out = t.RenderAscii();
  EXPECT_NE(out.find("| alpha"), std::string::npos);
  EXPECT_NE(out.find("12345"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, CsvEscapesCells) {
  TextTable t({"a", "b"});
  t.AddRow({"x,y", "plain"});
  std::string csv = t.RenderCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
}

TEST(TableTest, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_EQ(t.row(0).size(), 3u);
}

TEST(TableTest, MarkdownHasSeparator) {
  TextTable t({"h1", "h2"});
  t.AddRow({"v1", "v2"});
  std::string md = t.RenderMarkdown();
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
}

TEST(HistogramTest, BandAssignment) {
  BandedHistogram h({10, 100, 1000});
  EXPECT_EQ(h.BandOf(5), 0u);
  EXPECT_EQ(h.BandOf(10), 1u);
  EXPECT_EQ(h.BandOf(99), 1u);
  EXPECT_EQ(h.BandOf(100), 2u);
  EXPECT_EQ(h.BandOf(1000), 3u);
  EXPECT_EQ(h.num_bands(), 4u);
}

TEST(HistogramTest, AddAndTotal) {
  BandedHistogram h({10});
  h.Add(3);
  h.Add(30, 5);
  EXPECT_EQ(h.band_count(0), 1);
  EXPECT_EQ(h.band_count(1), 5);
  EXPECT_EQ(h.total(), 6);
}

TEST(HistogramTest, PowersOfTenLabels) {
  BandedHistogram h = BandedHistogram::PowersOfTen(4, 9);
  EXPECT_EQ(h.BandLabel(0), "<10K");
  EXPECT_NE(h.BandLabel(1).find("10K"), std::string::npos);
  EXPECT_EQ(h.BandLabel(h.num_bands() - 1), ">1B");
}

TEST(HumanCountTest, Formats) {
  EXPECT_EQ(HumanCount(999), "999");
  EXPECT_EQ(HumanCount(1000), "1K");
  EXPECT_EQ(HumanCount(1500), "1.5K");
  EXPECT_EQ(HumanCount(1000000), "1M");
  EXPECT_EQ(HumanCount(1000000000), "1B");
  EXPECT_EQ(HumanCount(-2000), "-2K");
}

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8);
}

TEST(Crc32Test, KnownVector) {
  // CRC32("123456789") == 0xCBF43926 (IEEE).
  const char* data = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32("", 0), 0u); }

/// Bit-at-a-time CRC32 over the same reflected polynomial: the reference the
/// sliced implementation must match on every alignment and length.
uint32_t BitwiseCrc32(const uint8_t* p, size_t len, uint32_t crc) {
  uint32_t c = ~crc;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return ~c;
}

TEST(Crc32Test, SlicedMatchesBitwiseReference) {
  Rng rng(32);
  std::vector<uint8_t> buf((size_t{1} << 20) + 64);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextBounded(256));
  const uint32_t seed = 0x9E3779B9u;
  for (size_t offset = 0; offset < 8; ++offset) {
    const uint8_t* p = buf.data() + offset;
    for (size_t len = 0; len <= 17; ++len) {
      EXPECT_EQ(Crc32(p, len), BitwiseCrc32(p, len, 0)) << offset << "+" << len;
      EXPECT_EQ(Crc32(p, len, seed), BitwiseCrc32(p, len, seed))
          << offset << "+" << len;
    }
    const size_t big = (size_t{1} << 20) + 13;
    // Chaining: the CRC of a prefix seeds the CRC of the rest.
    const size_t split = 333333 + offset;
    EXPECT_EQ(Crc32(p + split, big - split, Crc32(p, split, seed)),
              BitwiseCrc32(p, big, seed))
        << offset;
  }
}

TEST(Crc32Test, DetectsBitFlip) {
  std::string a = "hello world";
  std::string b = a;
  b[3] ^= 1;
  EXPECT_NE(Crc32(a.data(), a.size()), Crc32(b.data(), b.size()));
}

TEST(ReadWholeFileTest, RoundTripsEveryByte) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ug_read_whole_file.bin").string();
  Rng rng(5);
  std::string bytes(200001, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextBounded(256));
  std::ofstream(path, std::ios::binary) << bytes;
  auto back = ReadWholeFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, bytes);
  std::ofstream(path, std::ios::binary | std::ios::trunc).flush();
  back = ReadWholeFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
  std::filesystem::remove(path);
}

TEST(ReadWholeFileTest, ErrorsCarryTheCallerContext) {
  auto missing = ReadWholeFile("/nonexistent/nope.bin", "segment cache: ");
  ASSERT_TRUE(missing.status().IsIOError());
  EXPECT_EQ(missing.status().message(), "segment cache: cannot open /nonexistent/nope.bin");
  const std::string dir = std::filesystem::temp_directory_path().string();
  auto directory = ReadWholeFile(dir, "sharded csr: ");
  ASSERT_TRUE(directory.status().IsIOError());
  EXPECT_EQ(directory.status().message(), "sharded csr: read failed on " + dir);
}

TEST(ReadWholeFileTest, ShortAndUnsizedFilesYieldExactlyTheBytesRead) {
  // sysfs reports a 4096-byte size for a few-byte attribute (a file that
  // is shorter than its size); procfs reports size 0 and is read to EOF.
  const char* kShort = "/sys/devices/system/cpu/online";
  const char* kUnsized = "/proc/self/status";
  if (!std::filesystem::exists(kShort) || !std::filesystem::exists(kUnsized)) {
    GTEST_SKIP() << "needs Linux sysfs and procfs";
  }
  auto online = ReadWholeFile(kShort);
  ASSERT_TRUE(online.ok()) << online.status().ToString();
  ASSERT_FALSE(online->empty());
  EXPECT_LT(online->size(), 4096u);
  EXPECT_EQ(online->back(), '\n');
  EXPECT_EQ(online->find('\0'), std::string::npos);
  auto status = ReadWholeFile(kUnsized);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(status->rfind("Name:", 0), 0u);
  EXPECT_EQ(status->back(), '\n');
}

}  // namespace
}  // namespace ubigraph
