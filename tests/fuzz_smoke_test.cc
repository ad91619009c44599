// Failure-injection smoke tests: every parser in the library is fed random
// garbage and randomly mutated valid documents. The contract under test is
// totality — parsers must return ok() or an error Status, never crash,
// hang, or corrupt memory. (Run under ASan in CI-like setups.)
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/kcore.h"
#include "common/crc32.h"
#include "common/random.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "io/binary_io.h"
#include "io/csv_io.h"
#include "io/edge_list_io.h"
#include "io/gml_io.h"
#include "io/graphml_io.h"
#include "io/jgf_io.h"
#include "io/json_io.h"
#include "io/mmio.h"
#include "query/cypher_parser.h"
#include "query/plan_cache.h"
#include "rdf/ntriples.h"
#include "shard/segment.h"
#include "shard/sharded_csr.h"
#include "stream/incremental_components.h"
#include "stream/incremental_kcore.h"
#include "stream/incremental_pagerank.h"
#include "stream/streaming_graph.h"
#include "text_parse_oracle.h"

namespace ubigraph {
namespace {

/// Random printable-ish garbage (includes brackets/quotes to reach parser
/// corners).
std::string RandomGarbage(Rng* rng, size_t max_len) {
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 \t\n\"'<>[]{}(),.:;*-=#\\/";
  size_t len = rng->NextBounded(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out += kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)];
  }
  return out;
}

/// Applies `count` random single-byte mutations (overwrite/insert/delete).
std::string Mutate(std::string doc, Rng* rng, int count) {
  for (int i = 0; i < count && !doc.empty(); ++i) {
    size_t pos = rng->NextBounded(doc.size());
    switch (rng->NextBounded(3)) {
      case 0:
        doc[pos] = static_cast<char>(32 + rng->NextBounded(95));
        break;
      case 1:
        doc.insert(pos, 1, static_cast<char>(32 + rng->NextBounded(95)));
        break;
      case 2:
        doc.erase(pos, 1);
        break;
    }
  }
  return doc;
}

EdgeList SeedEdges() {
  Rng rng(99);
  return gen::ErdosRenyi(12, 30, &rng).ValueOrDie();
}

template <typename ParseFn>
void FuzzParser(ParseFn&& parse, const std::string& valid_doc, uint64_t seed) {
  Rng rng(seed);
  // Pure garbage.
  for (int i = 0; i < 200; ++i) {
    parse(RandomGarbage(&rng, 300));
  }
  // Mutations of a valid document (more likely to go deep into the parser).
  for (int i = 0; i < 200; ++i) {
    parse(Mutate(valid_doc, &rng, 1 + static_cast<int>(rng.NextBounded(8))));
  }
  // Degenerate inputs.
  parse("");
  parse(std::string(1, '\0'));
  parse(std::string(5000, '('));
}

TEST(FuzzSmokeTest, EdgeListParserIsTotal) {
  std::string valid = io::WriteEdgeListText(SeedEdges());
  FuzzParser([](const std::string& s) { io::ParseEdgeListText(s).ok(); }, valid, 1);
}

TEST(FuzzSmokeTest, CsvParserIsTotal) {
  std::string valid = io::WriteCsvEdges(SeedEdges());
  FuzzParser([](const std::string& s) { io::ParseCsvEdges(s).ok(); }, valid, 2);
}

TEST(FuzzSmokeTest, GraphMlParserIsTotal) {
  std::string valid = io::WriteGraphMl(SeedEdges());
  FuzzParser([](const std::string& s) { io::ParseGraphMl(s).ok(); }, valid, 3);
}

TEST(FuzzSmokeTest, GmlParserIsTotal) {
  std::string valid = io::WriteGml(SeedEdges());
  FuzzParser([](const std::string& s) { io::ParseGml(s).ok(); }, valid, 4);
}

TEST(FuzzSmokeTest, JsonGraphParserIsTotal) {
  std::string valid = io::WriteJsonGraph(SeedEdges());
  FuzzParser([](const std::string& s) { io::ParseJsonGraph(s).ok(); }, valid, 5);
}

TEST(FuzzSmokeTest, JgfParserIsTotal) {
  std::string valid = io::WriteJgf(SeedEdges());
  FuzzParser([](const std::string& s) { io::ParseJgf(s).ok(); }, valid, 6);
}

TEST(FuzzSmokeTest, BinaryParserIsTotal) {
  std::string valid = io::WriteBinaryGraph(SeedEdges());
  FuzzParser([](const std::string& s) { io::ParseBinaryGraph(s).ok(); }, valid, 7);
}

TEST(FuzzSmokeTest, BinaryParserMutationsNeverPassChecksum) {
  // Any byte mutation must be caught by the CRC (or fail structurally);
  // a mutated file must never parse as different valid data silently.
  std::string valid = io::WriteBinaryGraph(SeedEdges());
  Rng rng(8);
  int accepted = 0;
  for (int i = 0; i < 300; ++i) {
    std::string mutated = valid;
    size_t pos = rng.NextBounded(mutated.size());
    char old = mutated[pos];
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 + rng.NextBounded(255)));
    if (mutated[pos] == old) continue;
    if (io::ParseBinaryGraph(mutated).ok()) ++accepted;
  }
  EXPECT_EQ(accepted, 0);
}

TEST(FuzzSmokeTest, MatrixMarketParserIsTotal) {
  std::string valid = io::WriteMatrixMarket(SeedEdges());
  FuzzParser([](const std::string& s) { io::ParseMatrixMarket(s).ok(); },
             valid, 11);
}

TEST(FuzzSmokeTest, TsvTriplesParserIsTotal) {
  std::string valid = io::WriteTsvTriples(SeedEdges());
  FuzzParser([](const std::string& s) { io::ParseTsvTriples(s).ok(); },
             valid, 12);
}

TEST(FuzzSmokeTest, MatrixMarketHostileCorpusFailsCleanly) {
  // Structured hostile cases beyond random mutation: declared-size lies
  // (truncated / overlong), comment-only bodies, out-of-range and 0-based
  // ids, and value-count mismatches must each produce a clean ParseError.
  const char* kHostile[] = {
      "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 2 1.0\n",
      "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 2 1\n2 3 1\n",
      "%%MatrixMarket matrix coordinate real general\n% nothing\n% at all\n",
      "%%MatrixMarket matrix coordinate real general\n3 3 1\n4 1 1.0\n",
      "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 0 1.0\n",
      "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2 1.0\n",
      "%%MatrixMarket matrix coordinate real general\n999999999999 2 1\n",
      "%%MatrixMarket matrix coordinate real general\n0 0 3\n1 1 1.0\n",
      // A declared nnz of 4e12 must not be reserved before any entry is read.
      "%%MatrixMarket matrix coordinate pattern general\n4 4 4000000000000\n"
      "1 2\n",
  };
  for (const char* doc : kHostile) {
    auto result = io::ParseMatrixMarket(doc);
    EXPECT_FALSE(result.ok()) << "accepted: " << doc;
    EXPECT_FALSE(result.status().message().empty()) << doc;
  }
  // Duplicate entries are NOT hostile — wild files repeat edges; the parser
  // keeps them and CSR dedup handles the rest (see io_test.cc).
  EXPECT_TRUE(io::ParseMatrixMarket("%%MatrixMarket matrix coordinate real "
                                    "general\n2 2 2\n1 2 1.0\n1 2 1.0\n")
                  .ok());
}

// --- Scanner parsers vs the retired getline parsers ---------------------

/// The library parser and its oracle must agree on ok/failure and the
/// Status, and on success on the vertex count and every edge, weights
/// compared by bits.
template <typename ParseFn, typename OracleFn>
void ExpectMatchesOracle(ParseFn&& parse, OracleFn&& oracle, const std::string& doc) {
  const Result<EdgeList> got = parse(doc);
  const Result<EdgeList> want = oracle(doc);
  const std::string shown = ::testing::PrintToString(doc);
  ASSERT_EQ(got.ok(), want.ok())
      << shown << ": " << got.status().ToString() << " vs "
      << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << shown;
    EXPECT_EQ(got.status().message(), want.status().message()) << shown;
    return;
  }
  EXPECT_EQ(got->num_vertices(), want->num_vertices()) << shown;
  ASSERT_EQ(got->num_edges(), want->num_edges()) << shown;
  for (size_t i = 0; i < want->num_edges(); ++i) {
    const Edge& a = got->edges()[i];
    const Edge& b = want->edges()[i];
    EXPECT_EQ(a.src, b.src) << shown << " edge " << i;
    EXPECT_EQ(a.dst, b.dst) << shown << " edge " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.weight), std::bit_cast<uint64_t>(b.weight))
        << shown << " edge " << i;
  }
}

/// Weight spellings strtod accepts but std::from_chars rejects or reads
/// differently, plus its plain decimal forms and near-misses.
const char* const kWeightSpellings[] = {
    "3.5",  "+3.5", "-3.5", "0x1p3", "0X1P-2", "inf",   "-inf",    "INFINITY",
    "nan",  "-nan", "NaN(123)", "1e400", "-1e400", "1e-320", "1e-400", ".5",
    "5.",   "-.5",  "1e5",  "1E+05", "007",    "-0",    "0.1",     "1e",
    "1.5e", ".",    "-",    "+",    "0x",    "1_0",   "3.5x",    "infinit",
};

TEST(TextParserOracleTest, EdgeListHandWrittenCases) {
  using namespace std::string_literals;
  std::vector<std::string> docs = {
      "",
      "\n\n\n",
      "0 1\r\n1 2\r\n",
      "0\t1\n1\v2\f3\n2\r3\n",
      "   # indented comment\n\t#tab comment\n0 1\n",
      "1 2 # x\n",
      "1 2 #\n",
      "+1 2\n",
      "1 +2\n",
      "-0 1\n",
      "-1 2\n",
      "4294967295 0\n",
      "4294967296 0\n",
      "0 4294967296\n",
      "99999999999999999999 1\n",
      "1.0 2\n",
      "0x1 2\n",
      "1\n",
      "1 2 3 4\n",
      "0 1\n1 2",
      "#only a comment",
      "  \n\t\n0 0\n",
      "0 1 2.5\n3 4\n",
      "0 1\n2\0 3\n"s,
      "0\0 1\n"s,
      "0 1 2\0\n"s,
      "\0"s,
  };
  for (const char* w : kWeightSpellings) {
    docs.push_back(std::string("0 1 ") + w + "\n");
  }
  for (const std::string& doc : docs) {
    ExpectMatchesOracle(io::ParseEdgeListText, oracle::ParseEdgeListText, doc);
  }
}

TEST(TextParserOracleTest, MatrixMarketHandWrittenCases) {
  using namespace std::string_literals;
  const std::string real = "%%MatrixMarket matrix coordinate real general\n";
  std::vector<std::string> docs = {
      "",
      "\n",
      real,
      real + "3 3 2\n1 2 1.5\n3 1 -2\n",
      real + "% comment\n  % indented\n\n3 3 1\n% between\n1 2 1.0\n",
      "%%MatrixMarket matrix coordinate real general\r\n3 3 1\r\n1 2 1.0\r\n",
      "%%MATRIXMARKET Matrix Coordinate REAL General\n2 2 1\n1 2 4\n",
      "%%MatrixMarket matrix coordinate real general extra words\n2 2 1\n1 2 4\n",
      "%%MatrixMarket matrix coordinate\n2 2 1\n1 2 4\n",
      "%%MatrixMarket matrix array real general\n2 2 1\n1 2 4\n",
      "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2 4\n",
      "%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n1 2 4\n",
      "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n2 3\n",
      "%%MatrixMarket matrix coordinate integer symmetric\n3 3 2\n2 1 7\n3 3 1\n",
      "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 2 1\n",
      real + "2 3 2\n1 3 1\n2 1 2\n",
      real + "2 2\n",
      real + "2 2 1 1\n",
      real + "-1 2 0\n",
      real + "2 2 -1\n",
      real + "+2 2 1\n1 2 1\n",
      real + "4294967295 4294967295 0\n",
      real + "3 3 5\n1 2 1.0\n",
      real + "3 3 1\n1 2 1\n2 3 1\n",
      real + "% nothing\n% at all\n",
      real + "3 3 1\n4 1 1.0\n",
      real + "3 3 1\n1 0 1.0\n",
      "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2 1.0\n",
      real + "999999999999 2 1\n",
      real + "0 0 3\n1 1 1.0\n",
      "%%MatrixMarket matrix coordinate pattern general\n4 4 4000000000000\n1 2\n",
      real + "2 2 1\n1 2\n",
      real + "2 2 1\n1.5 2 1\n",
      real + "2 2 1\n1\t2\v3\n",
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\0 3\n"s,
  };
  for (const char* w : kWeightSpellings) {
    docs.push_back(real + "2 2 1\n1 2 " + w + "\n");
  }
  for (const std::string& doc : docs) {
    ExpectMatchesOracle(io::ParseMatrixMarket, oracle::ParseMatrixMarket, doc);
  }
}

TEST(TextParserOracleTest, TsvHandWrittenCases) {
  using namespace std::string_literals;
  std::vector<std::string> docs = {
      "",
      "\n \n",
      "1\t2\t3.5\n2\t3\t1\n",
      "1\t2\t3.5\r\n2\t3\t1\r\n",
      "1 2 3\n",
      "1\v2\f3\n",
      "1\t2\t3",
      "# comment\n1\t2\t1\n",
      "0\t1\t1\n",
      "1\t0\t1\n",
      "+1\t2\t1\n",
      "-1\t2\t1\n",
      "4294967295\t1\t1\n",
      "4294967296\t1\t1\n",
      "1\t2\n",
      "1\t2\t3\t4\n",
      "1\t2\t3\0\n"s,
  };
  for (const char* w : kWeightSpellings) {
    docs.push_back(std::string("1\t2\t") + w + "\n");
  }
  for (const std::string& doc : docs) {
    ExpectMatchesOracle(io::ParseTsvTriples, oracle::ParseTsvTriples, doc);
  }
}

/// SeedEdges with distinguishable fractional weights, so mutated documents
/// also reach the weight parser.
EdgeList WeightedSeedEdges() {
  EdgeList el = SeedEdges();
  for (size_t i = 0; i < el.mutable_edges().size(); ++i) {
    el.mutable_edges()[i].weight = 0.37 * static_cast<double>(i) - 2.5;
  }
  return el;
}

TEST(TextParserOracleTest, EdgeListFuzzInputs) {
  uint64_t seed = 101;
  for (const EdgeList& el : {SeedEdges(), WeightedSeedEdges()}) {
    FuzzParser(
        [](const std::string& s) {
          ExpectMatchesOracle(io::ParseEdgeListText, oracle::ParseEdgeListText, s);
        },
        io::WriteEdgeListText(el), seed++);
  }
}

// Edge lists of 1 MiB and more parse in 1 MiB chunks on the team, and files
// that size stream through per-thread read windows; both must still match
// the oracle byte for byte.

/// Seeded RMAT-15 text, ~3.2 MB (four parse chunks). Every fifth edge has a
/// weight, so the chunks parse weights too.
std::string RmatEdgeListText() {
  Rng rng(2024);
  EdgeList el = gen::Rmat(15, uint64_t{8} << 15, &rng).ValueOrDie();
  std::vector<Edge>& edges = el.mutable_edges();
  for (size_t i = 0; i < edges.size(); i += 5) {
    edges[i].weight = 0.5 + 0.25 * static_cast<double>(i % 13);
  }
  return io::WriteEdgeListText(el);
}

/// Replaces the line that holds byte `at` (0 < at < size) with `line`,
/// given without its '\n'.
std::string ReplaceLineAt(std::string doc, size_t at, const std::string& line) {
  const size_t begin = doc.rfind('\n', at - 1) + 1;  // npos + 1 == 0
  const size_t end = std::min(doc.find('\n', begin), doc.size());
  return doc.replace(begin, end - begin, line);
}

/// Rewrites the lines around byte `at` (at >= 2) so that `lines` starts
/// exactly there: a filler comment line runs up to it, and the partial
/// line after it is dropped. Bytes before the line that holds `at - 1`
/// keep their offsets, so placements go in ascending order.
std::string PlaceLinesAt(const std::string& doc, size_t at, const std::string& lines) {
  const size_t begin = doc.rfind('\n', at - 2) + 1;  // at most at - 1
  const size_t fill = at - begin;                     // filler with its '\n'
  std::string out = doc.substr(0, begin);
  if (fill == 1) {
    out += '\n';  // a blank line
  } else {
    out += '#';
    out.append(fill - 2, '.');
    out += '\n';
  }
  out += lines;
  const size_t end = doc.find('\n', at);
  if (end != std::string::npos) out += doc.substr(end + 1);
  return out;
}

/// ExpectMatchesOracle for multi-MiB documents: names the case instead of
/// printing the document, and reports the first differing edge.
void ExpectSameParse(const Result<EdgeList>& got, const Result<EdgeList>& want,
                     const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what << ": " << got.status().ToString()
                                 << " vs " << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    EXPECT_EQ(got.status().message(), want.status().message()) << what;
    return;
  }
  EXPECT_EQ(got->num_vertices(), want->num_vertices()) << what;
  ASSERT_EQ(got->num_edges(), want->num_edges()) << what;
  const auto [a, b] = std::mismatch(
      got->edges().begin(), got->edges().end(), want->edges().begin(),
      [](const Edge& x, const Edge& y) {
        return x.src == y.src && x.dst == y.dst &&
               std::bit_cast<uint64_t>(x.weight) == std::bit_cast<uint64_t>(y.weight);
      });
  EXPECT_TRUE(a == got->edges().end())
      << what << ": edge " << (a - got->edges().begin()) << " differs";
}

TEST(TextParserOracleTest, EdgeListChunkedDocuments) {
  using namespace std::string_literals;
  constexpr size_t kChunk = size_t{1} << 20;  // the parse's chunk size
  const std::string base = RmatEdgeListText();
  ASSERT_GT(base.size(), 3 * kChunk);
  std::string crlf;
  for (char c : base) crlf += c == '\n' ? "\r\n" : std::string(1, c);
  const size_t mid = base.rfind('\n', base.size() / 2) + 1;

  const std::vector<std::pair<std::string, std::string>> docs = {
      {"valid", base},
      {"no trailing newline", base.substr(0, base.size() - 1)},
      {"error in the last chunk", ReplaceLineAt(base, base.size() - 1000, "7 x")},
      {"errors in two chunks",
       ReplaceLineAt(ReplaceLineAt(base, kChunk + 500, "-1 2"), 2 * kChunk + 500,
                     "1 2 3 4")},
      {"error on a chunk's first line", PlaceLinesAt(base, 2 * kChunk, "5 6 x\n")},
      {"error on the line that crosses into a chunk",
       PlaceLinesAt(base, 2 * kChunk - 3, "5 6 x\n")},
      {"comment and blank lines at chunk starts",
       PlaceLinesAt(PlaceLinesAt(base, kChunk, "# c\n"), 2 * kChunk, "\n \t\n3 4\n")},
      {"comment crossing a chunk start", PlaceLinesAt(base, kChunk - 2, "# comment\n")},
      {"\\r\\n lines across chunk starts",
       PlaceLinesAt(PlaceLinesAt(crlf, kChunk - 4, "7 8\r\n"), 2 * kChunk - 3, "5 6\r\n")},
      {"comments every few lines", [&] {
         std::string doc;
         size_t line = 0;
         for (char c : base) {
           doc += c;
           if (c == '\n' && ++line % 7 == 0) doc += line % 2 ? "# note\n" : "  \n";
         }
         return doc;
       }()},
      {"3 MiB comment line",
       base.substr(0, mid) + "#" + std::string(3 * kChunk, 'x') + "\n" + base.substr(mid)},
      {"record longer than the read window",
       PlaceLinesAt(base, kChunk - 100, "1 2" + std::string(200000, ' ') + "0.5\n")},
      {"bad line longer than the read window",
       PlaceLinesAt(base, 2 * kChunk - 10, "1 2" + std::string(100000, '\t') + "3 4\n")},
      {"NUL byte in a record", ReplaceLineAt(base, 2 * kChunk + 300, "12\0 3"s)},
      {"NUL byte in a comment", ReplaceLineAt(base, kChunk + 300, "# a\0b"s)},
      {"id 4294967295 first", "4294967295 0\n" + base},
      {"id 4294967295 in the middle", ReplaceLineAt(base, mid, "4294967295 7")},
      {"id 4294967295 last", base + "4294967295 1\n"},
  };
  const std::string path =
      (std::filesystem::temp_directory_path() / "ubigraph_chunked_oracle.el").string();
  for (const auto& [what, doc] : docs) {
    const Result<EdgeList> want = oracle::ParseEdgeListText(doc);
    ExpectSameParse(io::ParseEdgeListText(doc), want, what + " (text)");
    std::ofstream(path, std::ios::binary | std::ios::trunc) << doc;
    ExpectSameParse(io::ReadEdgeListFile(path), want, what + " (file)");
  }
  std::filesystem::remove(path);
}

TEST(TextParserOracleTest, MatrixMarketFuzzInputs) {
  uint64_t seed = 111;
  for (const EdgeList& el : {SeedEdges(), WeightedSeedEdges()}) {
    for (bool pattern : {false, true}) {
      FuzzParser(
          [](const std::string& s) {
            ExpectMatchesOracle(io::ParseMatrixMarket, oracle::ParseMatrixMarket, s);
          },
          io::WriteMatrixMarket(el, pattern), seed++);
    }
  }
}

TEST(TextParserOracleTest, TsvFuzzInputs) {
  uint64_t seed = 121;
  for (const EdgeList& el : {SeedEdges(), WeightedSeedEdges()}) {
    FuzzParser(
        [](const std::string& s) {
          ExpectMatchesOracle(io::ParseTsvTriples, oracle::ParseTsvTriples, s);
        },
        io::WriteTsvTriples(el), seed++);
  }
}

TEST(FuzzSmokeTest, BinaryLyingEdgeCountFailsCleanly) {
  // num_edges = 2^60 with the weights flag: 2^60 x 16 bytes wraps u64 to 0,
  // which a product-based size check would accept before reserving 2^60
  // edges. The CRC is re-stamped so only the structural check stands in the
  // way.
  EdgeList empty(4);
  std::string doc = io::WriteBinaryGraph(empty, {.elide_unit_weights = false});
  const uint64_t lying_edges = uint64_t{1} << 60;
  std::memcpy(doc.data() + 16, &lying_edges, sizeof lying_edges);
  ASSERT_EQ(static_cast<uint8_t>(doc[24]), 1u) << "weights flag expected";
  const uint32_t crc = Crc32(doc.data(), doc.size() - sizeof(uint32_t));
  std::memcpy(doc.data() + doc.size() - sizeof(uint32_t), &crc, sizeof crc);
  auto result = io::ParseBinaryGraph(doc);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.status().message().empty());
}

TEST(FuzzSmokeTest, NTriplesParserIsTotal) {
  rdf::TripleStore seed;
  seed.Add("a", "b", "c");
  seed.Add("d", "e", "\"literal text\"");
  std::string valid = rdf::WriteNTriples(seed);
  FuzzParser(
      [](const std::string& s) {
        rdf::TripleStore store;
        rdf::ParseNTriples(s, &store).ok();
      },
      valid, 9);
}

TEST(FuzzSmokeTest, MalformedCorpusReturnsCleanErrors) {
  // A curated corpus of structurally-broken GML/GraphML/JGF documents:
  // truncated tags, unterminated strings/objects, and non-UTF8 bytes spliced
  // into positions where the parser must bail deterministically. Each one
  // must produce a clean error Status with a message — never ok(), never a
  // crash.
  struct Case {
    const char* format;
    std::string doc;
  };
  const std::string kBadBytes = "\xff\xfe\x80\xc1";
  const Case kCorpus[] = {
      // GML: truncated structure and garbage bytes inside values.
      {"gml", "graph [ node [ id 0"},
      {"gml", "graph [ node [ id 0 ] edge [ source 0 target"},
      {"gml", "graph [ label \"" + kBadBytes},
      {"gml", "graph [ node [ id " + kBadBytes + " ] ]"},
      // GraphML: truncated <graph> tag, and complete tags with missing or
      // garbage attributes. (Truncation after a complete <graph> is treated
      // leniently by the scanner — those live in the no-crash sweep below.)
      {"graphml", "<graphml><graph"},
      {"graphml", "<graphml><node id=\"a\"/></graphml>"},
      {"graphml", "<graphml><graph><node/></graph></graphml>"},
      {"graphml", "<graphml><graph><edge source=\"a\"/></graph></graphml>"},
      {"graphml", "<graphml><graph><node " + kBadBytes + "/></graph>"},
      // JGF: truncated JSON containers and raw bytes where a value belongs.
      {"jgf", "{\"graph\": {\"nodes\": {"},
      {"jgf", "{\"graph\": {\"edges\": [{\"source\": \"a\","},
      {"jgf", "{\"graph\": " + kBadBytes + "}"},
      {"jgf", "{\"graph\": {\"label\": \"" + kBadBytes + "\"}"},
  };
  for (const Case& c : kCorpus) {
    Status status;
    std::string fmt = c.format;
    if (fmt == "gml") {
      status = io::ParseGml(c.doc).status();
    } else if (fmt == "graphml") {
      status = io::ParseGraphMl(c.doc).status();
    } else {
      status = io::ParseJgf(c.doc).status();
    }
    EXPECT_FALSE(status.ok()) << fmt << " accepted: " << c.doc;
    EXPECT_FALSE(status.message().empty()) << fmt << ": " << c.doc;
  }
}

TEST(FuzzSmokeTest, TruncatedDocumentsNeverCrash) {
  // Truncation at every byte boundary of a small valid document. Some
  // prefixes still parse (the GraphML scanner drops a trailing partial tag),
  // so only totality is asserted, not failure.
  const std::string gml = io::WriteGml(SeedEdges());
  const std::string graphml = io::WriteGraphMl(SeedEdges());
  const std::string jgf = io::WriteJgf(SeedEdges());
  for (size_t len = 0; len < gml.size(); ++len) {
    io::ParseGml(gml.substr(0, len)).ok();
  }
  for (size_t len = 0; len < graphml.size(); ++len) {
    io::ParseGraphMl(graphml.substr(0, len)).ok();
  }
  for (size_t len = 0; len < jgf.size(); ++len) {
    io::ParseJgf(jgf.substr(0, len)).ok();
  }
}

TEST(FuzzSmokeTest, NonUtf8BytesInGarbageNeverCrashParsers) {
  // RandomGarbage above stays printable; this variant floods the full byte
  // range (including invalid UTF-8 continuation patterns) through the three
  // markup parsers.
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    size_t len = rng.NextBounded(200);
    std::string doc;
    doc.reserve(len + 16);
    // Anchor with a real prefix ~half the time so the fuzz reaches past the
    // first token before hitting the bad bytes.
    switch (rng.NextBounded(4)) {
      case 0: doc = "graph [ "; break;
      case 1: doc = "<graphml><graph>"; break;
      case 2: doc = "{\"graph\": {"; break;
      default: break;
    }
    for (size_t k = 0; k < len; ++k) {
      doc += static_cast<char>(rng.NextBounded(256));
    }
    io::ParseGml(doc).ok();
    io::ParseGraphMl(doc).ok();
    io::ParseJgf(doc).ok();
  }
}

TEST(FuzzSmokeTest, CypherParserIsTotal) {
  std::string valid =
      "MATCH (a:Person {age: 34})-[:knows*1..3]->(b) WHERE a.x <= 1.5 "
      "RETURN a.name, count(*) ORDER BY a.name DESC LIMIT 5";
  FuzzParser([](const std::string& s) { query::ParseCypher(s).ok(); }, valid, 10);
}

TEST(FuzzSmokeTest, CypherNormalizerIsTotal) {
  // The plan-cache normalizer must be total on the same hostile inputs the
  // parser survives, and must produce a cache key for EVERY parse-accepted
  // query (the cache-hit fast path runs the normalizer alone, so a query the
  // parser accepts but the normalizer rejects would fall off the fast path —
  // or worse, crash it).
  std::string valid =
      "MATCH (a:Person {age: 34})-[:knows*1..3]->(b) WHERE a.x <= 1.5 "
      "RETURN a.name, count(*) ORDER BY a.name DESC LIMIT 5";
  FuzzParser(
      [](const std::string& s) {
        bool parsed = query::ParseCypher(s).ok();
        auto normalized = query::NormalizeCypher(s);
        if (parsed) {
          ASSERT_TRUE(normalized.ok())
              << "parse-accepted query has no cache key: " << s;
          EXPECT_FALSE(normalized->key.empty()) << s;
        }
      },
      valid, 11);
}

TEST(FuzzSmokeTest, CypherNormalizerHostileShapes) {
  // Hand-built hostile shapes: deep nesting, duplicate variables, 0-length
  // patterns, unbalanced braces, boolean identifiers in every position.
  std::vector<std::string> docs = {
      "MATCH () RETURN count(*)",
      "MATCH ()-[]->() RETURN count(*)",
      "MATCH (a)-[:k]->(a)-[:k]->(a) RETURN a",
      "MATCH (a {x: 1, x: 2, x: 3}) RETURN a",
      "MATCH (true)-[:false]->(false {true: true}) RETURN true",
      "MATCH (a:L {k: 'v'}) WHERE a.k = 'v' RETURN a LIMIT 0",
      std::string(5000, '('),
      std::string(5000, '{'),
      "MATCH (a {x: " + std::string(200, '1') + "}) RETURN a",
  };
  // Deeply nested / repeated pattern elements.
  std::string deep = "MATCH (v0)";
  for (int i = 1; i <= 64; ++i) {
    deep += "-[:e]->(v" + std::to_string(i) + ")";
  }
  deep += " RETURN count(*)";
  docs.push_back(deep);
  for (const std::string& doc : docs) {
    bool parsed = query::ParseCypher(doc).ok();
    auto normalized = query::NormalizeCypher(doc);
    if (parsed) {
      ASSERT_TRUE(normalized.ok()) << doc.substr(0, 80);
      EXPECT_FALSE(normalized->key.empty());
    }
    // Either way: no crash, and a clean Status on rejection.
    if (!normalized.ok()) {
      EXPECT_FALSE(normalized.status().message().empty());
    }
  }
}

// --- mutation-stream fuzz: the streaming layer, not the parsers ------------
// The same totality contract applied to random update sequences: hostile op
// streams (out-of-range ids, self-loops, duplicates, remove-twice,
// non-monotone timestamps) must yield ok() or a clean error Status — never a
// crash — and the structure's invariants must match a trivial reference
// model afterwards.

TEST(FuzzSmokeTest, StreamingGraphHostileOpsAreTotal) {
  Rng rng(21);
  for (int round = 0; round < 20; ++round) {
    const VertexId n = 1 + static_cast<VertexId>(rng.NextBounded(12));
    stream::StreamingGraph sg(n, {.window = 1 + rng.NextBounded(30),
                                  .rebuild_threshold = 1 + rng.NextBounded(8)});
    uint64_t ts = 0;
    for (int op = 0; op < 300; ++op) {
      // Ids range past n to exercise out-of-range; timestamps jitter
      // backwards ~1/4 of the time to exercise time-goes-back rejection.
      VertexId u = static_cast<VertexId>(rng.NextBounded(n + 3));
      VertexId v = static_cast<VertexId>(rng.NextBounded(n + 3));
      if (rng.NextBool(0.25)) {
        ts = ts > 5 ? ts - rng.NextBounded(5) : 0;
      } else {
        ts += rng.NextBounded(4);
      }
      if (rng.NextBool(0.2)) {
        sg.Advance(ts).ok();
      } else {
        Status s = sg.AddEdge(u, v, ts);
        if (!s.ok()) {
          EXPECT_FALSE(s.message().empty());
        }
      }
      EXPECT_LE(sg.NumComponents(), sg.num_vertices());
    }
  }
}

TEST(FuzzSmokeTest, DynamicGraphHostileOpsMatchReferenceModel) {
  Rng rng(22);
  for (int round = 0; round < 20; ++round) {
    const VertexId n = 1 + static_cast<VertexId>(rng.NextBounded(10));
    const bool multi = rng.NextBool();
    DynamicGraph dyn(n, multi);
    dyn.EnableDeltaLog();
    // Reference model: live (src, dst) pairs with multiplicity.
    std::map<std::pair<VertexId, VertexId>, uint64_t> model;
    uint64_t model_edges = 0;
    for (int op = 0; op < 300; ++op) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(n + 2));
      VertexId v = static_cast<VertexId>(rng.NextBounded(n + 2));
      if (rng.NextBool(0.6)) {
        auto added = dyn.AddEdge(u, v);
        const bool in_range = u < n && v < n;
        const bool dup = in_range && model.count({u, v}) > 0;
        if (!in_range) {
          EXPECT_TRUE(added.status().IsOutOfRange());
        } else if (!multi && dup) {
          EXPECT_TRUE(added.status().IsAlreadyExists());
        } else {
          ASSERT_TRUE(added.ok());
          ++model[{u, v}];
          ++model_edges;
        }
      } else if (rng.NextBool()) {
        Status s = dyn.RemoveEdgeBetween(u, v);
        if (u < n && v < n && model.count({u, v}) > 0) {
          ASSERT_TRUE(s.ok());
          auto it = model.find({u, v});
          if (--it->second == 0) model.erase(it);
          --model_edges;
        } else {
          EXPECT_FALSE(s.ok());
          EXPECT_FALSE(s.message().empty());
        }
      } else {
        // Remove by id, including already-removed and out-of-range ids
        // (remove-twice comes up naturally once an id has been freed).
        EdgeId id = rng.NextBounded(2 * 300);
        auto view = dyn.GetEdge(id);
        Status s = dyn.RemoveEdge(id);
        if (view.ok()) {
          ASSERT_TRUE(s.ok());
          auto it = model.find({view.ValueOrDie().src, view.ValueOrDie().dst});
          ASSERT_NE(it, model.end());
          if (--it->second == 0) model.erase(it);
          --model_edges;
          EXPECT_TRUE(dyn.RemoveEdge(id).IsNotFound());  // remove-twice
        } else {
          EXPECT_FALSE(s.ok());
        }
      }
      ASSERT_EQ(dyn.num_edges(), model_edges);
    }
    // The delta log replays the surviving multiset exactly.
    std::map<std::pair<VertexId, VertexId>, int64_t> replay;
    for (const GraphDelta& d : dyn.TakeDeltas()) {
      replay[{d.src, d.dst}] += d.kind == GraphDelta::Kind::kInsert ? 1 : -1;
    }
    for (const auto& [arc, count] : model) {
      EXPECT_EQ(replay[arc], static_cast<int64_t>(count));
    }
    for (const auto& [arc, count] : replay) {
      if (!model.count(arc)) {
        EXPECT_EQ(count, 0);
      }
    }
  }
}

TEST(FuzzSmokeTest, IncrementalKCoreHostileOpsKeepInvariants) {
  Rng rng(23);
  for (int round = 0; round < 10; ++round) {
    const VertexId n = 2 + static_cast<VertexId>(rng.NextBounded(10));
    stream::IncrementalKCore inc(n);
    std::set<std::pair<VertexId, VertexId>> model;
    for (int op = 0; op < 150; ++op) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(n + 2));
      VertexId v = static_cast<VertexId>(rng.NextBounded(n + 2));
      const auto key = std::minmax(u, v);
      if (rng.NextBool(0.6)) {
        Status s = inc.InsertEdge(u, v);
        if (u >= n || v >= n) {
          EXPECT_TRUE(s.IsOutOfRange());
        } else if (u == v) {
          EXPECT_TRUE(s.IsInvalid());
        } else if (model.count({key.first, key.second})) {
          EXPECT_TRUE(s.IsAlreadyExists());
        } else {
          ASSERT_TRUE(s.ok());
          model.insert({key.first, key.second});
        }
      } else {
        Status s = inc.RemoveEdge(u, v);
        if (u < n && v < n && model.count({key.first, key.second})) {
          ASSERT_TRUE(s.ok());
          model.erase({key.first, key.second});
        } else {
          EXPECT_FALSE(s.ok());
          EXPECT_FALSE(s.message().empty());
        }
      }
    }
    ASSERT_EQ(inc.num_edges(), model.size());
    // Invariant: maintained core numbers equal the batch decomposition of
    // the surviving graph.
    auto g = CsrGraph::FromEdges(inc.Snapshot(), CsrOptions{.directed = false})
                 .ValueOrDie();
    auto cores = algo::CoreDecomposition(g);
    cores.resize(n, 0);
    EXPECT_EQ(inc.core_numbers(), cores);
  }
}

TEST(FuzzSmokeTest, IncrementalEngineBatchesRejectHostileDeltas) {
  // Random delta batches, many invalid (out-of-range endpoints, self-loops,
  // double-removes): engines must either apply the batch or reject it with a
  // clean Status, and a rejected batch must leave results untouched.
  Rng rng(24);
  EdgeList base(8);
  base.Add(0, 1);
  base.Add(1, 2);
  base.Add(2, 3);
  base.Add(4, 5);
  auto pr = stream::IncrementalPageRank::Create(base).ValueOrDie();
  auto cc = stream::IncrementalComponents::Create(base).ValueOrDie();
  for (int op = 0; op < 150; ++op) {
    std::vector<GraphDelta> batch;
    const size_t len = rng.NextBounded(5);
    for (size_t i = 0; i < len; ++i) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(10));
      VertexId v = static_cast<VertexId>(rng.NextBounded(10));
      batch.push_back(rng.NextBool() ? GraphDelta::Insert(u, v)
                                     : GraphDelta::Remove(u, v));
    }
    const std::vector<double> scores_before = pr.scores();
    const std::vector<uint32_t> labels_before = cc.Labels();
    auto pr_res = pr.ApplyBatch(batch);
    auto cc_res = cc.ApplyBatch(batch);
    ASSERT_EQ(pr_res.ok(), cc_res.ok());  // same validation rules
    if (!pr_res.ok()) {
      EXPECT_FALSE(pr_res.status().message().empty());
      EXPECT_EQ(pr.scores(), scores_before);
      EXPECT_EQ(cc.Labels(), labels_before);
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded segment / manifest files (src/shard/segment.h). The decoders alias
// the input buffer zero-copy, so totality here means "no OOB read ever" —
// hostile bytes must come back as a Status through the structural checks.
// ---------------------------------------------------------------------------

/// DecodeSegment requires an 8-byte-aligned buffer (it returns a clean error
/// otherwise); copy into u64 storage so fuzz inputs reach the deep checks.
bool SegmentDecodes(const std::string& bytes, bool verify) {
  std::vector<uint64_t> buf((bytes.size() + 7) / 8 + 1);
  std::memcpy(buf.data(), bytes.data(), bytes.size());
  return shard::DecodeSegment(
             {reinterpret_cast<const uint8_t*>(buf.data()), bytes.size()},
             verify)
      .ok();
}

bool ManifestDecodes(const std::string& bytes) {
  return shard::DecodeManifest(
             {reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()})
      .ok();
}

/// Segment 0 of the seed graph split into two shards ({0, 6, 12}): rows
/// [0, 6), their ids in two blocks.
std::string ValidSegmentBlob(shard::SegmentEncoding encoding) {
  auto g = CsrGraph::FromEdges(SeedEdges()).ValueOrDie();
  const std::vector<VertexId> columns = {0, 6, 12};
  EXPECT_EQ(g.num_vertices(), columns.back());
  std::vector<uint64_t> local(columns[1] + 1);
  for (VertexId v = 0; v <= columns[1]; ++v) local[v] = g.offsets()[v];
  return shard::EncodeSegment(0, columns, local,
                              std::span<const VertexId>(g.targets())
                                  .subspan(0, local[columns[1]]),
                              encoding);
}

/// Overwrites `width` bytes at `offset` and re-stamps the CRC, so each
/// corruption reaches its own structural check rather than dying at the
/// checksum.
std::string Tamper(std::string doc, size_t offset, uint64_t value,
                   size_t width) {
  std::memcpy(doc.data() + offset, &value, width);
  const uint32_t crc = Crc32(doc.data(), doc.size() - sizeof(uint32_t));
  std::memcpy(doc.data() + doc.size() - sizeof crc, &crc, sizeof crc);
  return doc;
}

TEST(FuzzSmokeTest, SegmentDecoderIsTotal) {
  for (auto enc :
       {shard::SegmentEncoding::kPlain, shard::SegmentEncoding::kCompressed}) {
    std::string valid = ValidSegmentBlob(enc);
    ASSERT_TRUE(SegmentDecodes(valid, true));
    FuzzParser([](const std::string& s) { SegmentDecodes(s, true); }, valid,
               41);
    FuzzParser([](const std::string& s) { SegmentDecodes(s, false); }, valid,
               42);
    // Every truncation point, both verify modes.
    for (size_t len = 0; len < valid.size(); len += 3) {
      EXPECT_FALSE(SegmentDecodes(valid.substr(0, len), false));
      EXPECT_FALSE(SegmentDecodes(valid.substr(0, len), true));
    }
  }
}

TEST(FuzzSmokeTest, SegmentMutationsNeverPassVerification) {
  // Under verify=true the CRC covers header + payload, so ANY single-byte
  // corruption must be rejected — a flipped target id or degree must never
  // be served as valid data.
  Rng rng(43);
  for (auto enc :
       {shard::SegmentEncoding::kPlain, shard::SegmentEncoding::kCompressed}) {
    std::string valid = ValidSegmentBlob(enc);
    int accepted = 0;
    for (int i = 0; i < 300; ++i) {
      std::string mutated = valid;
      size_t pos = rng.NextBounded(mutated.size());
      char old = mutated[pos];
      mutated[pos] =
          static_cast<char>(mutated[pos] ^ (1 + rng.NextBounded(255)));
      if (mutated[pos] == old) continue;
      if (SegmentDecodes(mutated, true)) ++accepted;
    }
    EXPECT_EQ(accepted, 0);
  }
}

TEST(FuzzSmokeTest, SegmentHostileHeadersFailCleanly) {
  // Targeted header tampering with the CRC re-stamped.
  for (auto enc :
       {shard::SegmentEncoding::kPlain, shard::SegmentEncoding::kCompressed}) {
    SCOPED_TRACE(shard::SegmentEncodingName(enc));
    const std::string valid = ValidSegmentBlob(enc);
    auto tamper = [&](size_t offset, uint64_t value, size_t width) {
      return Tamper(valid, offset, value, width);
    };
    EXPECT_FALSE(SegmentDecodes(tamper(0, 0x58585858u, 4), true));  // magic
    EXPECT_FALSE(SegmentDecodes(tamper(4, 1, 4), true));   // format 1: unread
    EXPECT_FALSE(SegmentDecodes(tamper(4, 999, 4), true));   // version skew
    EXPECT_FALSE(SegmentDecodes(tamper(8, 0xffu, 4), true));  // unknown flags
    EXPECT_FALSE(SegmentDecodes(tamper(12, 2, 4), true));   // shard >= count
    EXPECT_FALSE(SegmentDecodes(tamper(16, 0, 4), true));   // zero shards
    EXPECT_FALSE(SegmentDecodes(tamper(24, 50, 8), true));   // begin > end
    EXPECT_FALSE(SegmentDecodes(tamper(32, 1u << 20, 8), true));  // end > V
    EXPECT_FALSE(SegmentDecodes(tamper(40, 1u << 30, 8), true));  // edges lie
    EXPECT_FALSE(SegmentDecodes(tamper(48, 8, 8), true));  // payload_bytes lie
    EXPECT_FALSE(SegmentDecodes(tamper(56, 99, 8), true));  // entries lie
    // Shrinking the vertex count below the segment's rows breaks its range.
    EXPECT_FALSE(SegmentDecodes(tamper(20, 2, 4), true));
    // A shard count whose directory outgrows the payload, sized by division.
    EXPECT_FALSE(SegmentDecodes(tamper(16, 0xfffffffeu, 4), false));
    // Unsigned-wrap attacks on the header counts a decoder might multiply:
    // num_edges = 2^62 + E makes a plain `num_edges * 4` wrap u64 back to a
    // plausible size, and num_entries = 2^63 + k makes `2 * num_entries`
    // wrap to 2k. The decoder compares them by division, in both verify
    // modes — the CRC is re-stamped, so only the structural checks stand
    // between these headers and the kernels.
    uint64_t true_edges = 0, true_entries = 0;
    std::memcpy(&true_edges, valid.data() + 40, sizeof true_edges);
    std::memcpy(&true_entries, valid.data() + 56, sizeof true_entries);
    for (bool verify : {false, true}) {
      EXPECT_FALSE(SegmentDecodes(
          tamper(40, (uint64_t{1} << 62) + true_edges, 8), verify));
      EXPECT_FALSE(SegmentDecodes(
          tamper(56, (uint64_t{1} << 63) + true_entries, 8), verify));
    }
  }
}

/// Byte offsets into a serialized segment of `S` blocks.
struct SegmentLayout {
  explicit SegmentLayout(const std::string& blob) {
    std::memcpy(&S, blob.data() + 16, sizeof S);
    area = sizeof(shard::SegmentHeader) +
           (S + 1) * (sizeof(uint64_t) + sizeof(VertexId));
    offsets.resize(S + 1);
    std::memcpy(offsets.data(), blob.data() + sizeof(shard::SegmentHeader),
                offsets.size() * sizeof(uint64_t));
  }
  size_t block_offset_pos(uint32_t t) const {
    return sizeof(shard::SegmentHeader) + t * sizeof(uint64_t);
  }
  size_t block(uint32_t t) const { return area + offsets[t]; }

  uint32_t S = 0;
  size_t area = 0;
  std::vector<uint64_t> offsets;
};

TEST(FuzzSmokeTest, SegmentHostileBlocksFailCleanly) {
  // Hand-made v2 block corruption with the CRC re-stamped. Each case must
  // fail cleanly with a Status through DecodeSegment under verification and
  // through the full Open/Acquire path, where the first load verifies.
  namespace fs = std::filesystem;
  auto g = CsrGraph::FromEdges(SeedEdges()).ValueOrDie();
  const fs::path dir =
      fs::temp_directory_path() / "ubigraph_fuzz_sharded_blocks";
  for (auto enc :
       {shard::SegmentEncoding::kPlain, shard::SegmentEncoding::kCompressed}) {
    SCOPED_TRACE(shard::SegmentEncodingName(enc));
    shard::ShardOptions opts;
    opts.num_shards = 2;
    opts.encoding = enc;
    auto sharded = shard::ShardedCsr::Build(g, opts).ValueOrDie();
    fs::remove_all(dir);
    ASSERT_TRUE(sharded.WriteTo(dir.string()).ok());
    const std::string valid = ValidSegmentBlob(enc);
    {
      // The hand-encoded blob is the one Build wrote for shard 0.
      std::ifstream in(dir / "segment_00000.ugsg", std::ios::binary);
      ASSERT_EQ(std::string((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>()),
                valid);
    }
    const SegmentLayout at(valid);
    ASSERT_EQ(at.S, 2u);
    // Block 0: varint(header bytes), entry headers (varint row delta,
    // varint count or length), then the entries' ids.
    const size_t block = at.block(0);
    const size_t header_bytes = static_cast<uint8_t>(valid[block]);
    ASSERT_LT(at.offsets[1] - at.offsets[0], 0x7fu);
    const size_t first = block + 1;
    const size_t second = first + 2;
    ASSERT_LT(static_cast<uint8_t>(valid[first]), 0x80);
    ASSERT_LT(static_cast<uint8_t>(valid[first + 1]), 0x80);
    ASSERT_LT(second, first + header_bytes);
    const size_t first_id = first + header_bytes;

    auto fails_cleanly = [&](const std::string& doc) {
      bool decode_failed = !SegmentDecodes(doc, true);
      {
        std::ofstream out(dir / "segment_00000.ugsg",
                          std::ios::binary | std::ios::trunc);
        out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
      }
      shard::ShardOpenOptions oopts;
      oopts.storage = shard::SegmentStorage::kMapped;
      auto opened = shard::ShardedCsr::Open(dir.string(), oopts);
      const bool open_failed =
          !opened.ok() || !opened->AcquireShard(0).ok();
      return decode_failed && open_failed;
    };
    ASSERT_FALSE(fails_cleanly(valid));

    // A block directory that does not ascend, or does not span the payload.
    EXPECT_TRUE(fails_cleanly(Tamper(valid, at.block_offset_pos(1),
                                     at.offsets[2] + 1, 8)));
    EXPECT_TRUE(fails_cleanly(Tamper(valid, at.block_offset_pos(0), 1, 8)));
    EXPECT_TRUE(fails_cleanly(
        Tamper(valid, at.block_offset_pos(2), at.offsets[2] - 1, 8)));
    // A row delta past the shard's 6 rows.
    EXPECT_TRUE(fails_cleanly(Tamper(valid, first, 0x7f, 1)));
    // Rows that do not ascend: the second entry repeats the first's row.
    EXPECT_TRUE(fails_cleanly(Tamper(valid, second, 0, 1)));
    // Entry headers that disagree with their ids: an empty entry, ids that
    // run off the block, a header stream that runs off it or stops short
    // of the ids, and header totals the blocks do not hold.
    EXPECT_TRUE(fails_cleanly(Tamper(valid, first + 1, 0, 1)));
    EXPECT_TRUE(fails_cleanly(Tamper(valid, first + 1, 0x7f, 1)));
    EXPECT_TRUE(fails_cleanly(Tamper(valid, block, 0x7f, 1)));
    EXPECT_TRUE(fails_cleanly(Tamper(valid, block, 2, 1)));
    uint64_t entries = 0;
    std::memcpy(&entries, valid.data() + 56, sizeof entries);
    EXPECT_TRUE(fails_cleanly(Tamper(valid, 56, entries + 1, 8)));
    // A block whose ids leave its destination column [0, 6): a plain id of
    // 7, or a compressed first id of column start + 127.
    if (enc == shard::SegmentEncoding::kPlain) {
      EXPECT_TRUE(fails_cleanly(Tamper(valid, first_id, 7, 4)));
    } else {
      EXPECT_TRUE(fails_cleanly(Tamper(valid, first_id, 0x7f, 1)));
    }
  }
  fs::remove_all(dir);
}

/// The byte-at-a-time varint stream check CountVarints replaced, kept as its
/// oracle: one branch per byte.
Result<uint64_t> CountVarintsByteLoop(std::span<const uint8_t> bytes) {
  uint64_t terminators = 0;
  uint32_t run = 0;  // continuation bytes since the last terminator
  for (uint8_t b : bytes) {
    if (b & 0x80) {
      if (++run > 4) return Status::Corruption("varint longer than 5 bytes");
    } else {
      ++terminators;
      run = 0;
    }
  }
  if (!bytes.empty() && (bytes.back() & 0x80)) {
    return Status::Corruption("stream ends inside a varint");
  }
  return terminators;
}

void ExpectSameVarintVerdict(const std::string& doc) {
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(doc.data()), doc.size());
  const Result<uint64_t> word = shard::CountVarints(bytes);
  const Result<uint64_t> oracle = CountVarintsByteLoop(bytes);
  ASSERT_EQ(word.ok(), oracle.ok()) << doc.size() << " bytes";
  if (word.ok()) {
    ASSERT_EQ(*word, *oracle);
  }
}

TEST(FuzzSmokeTest, WordVarintValidatorMatchesByteLoopOracle) {
  // A compressed segment of an RMAT graph, whose gaps often need 2-3 byte
  // varints: the word-at-a-time validator must give the byte loop's verdict
  // and count on every mutated copy. Mutations insert, delete and overwrite
  // bytes (shifting every word boundary) and flip high bits (making and
  // breaking continuation runs).
  Rng gen_rng(17);
  auto g = CsrGraph::FromEdges(gen::Rmat(12, 8192, &gen_rng).ValueOrDie())
               .ValueOrDie();
  shard::ShardOptions opts;
  opts.num_shards = 4;
  opts.encoding = shard::SegmentEncoding::kCompressed;
  auto sharded = shard::ShardedCsr::Build(g, opts).ValueOrDie();
  const std::span<const uint8_t> blob =
      sharded.cache().SerializedBytes(1).ValueOrDie();
  const std::string valid(blob.begin(), blob.end());
  const SegmentLayout at(valid);
  const std::string area = valid.substr(at.area, at.offsets[at.S]);
  ASSERT_TRUE(shard::CountVarints({reinterpret_cast<const uint8_t*>(
                                       area.data()),
                                   area.size()})
                  .ok());
  Rng rng(46);
  for (int i = 0; i < 20000; ++i) {
    std::string doc = Mutate(i % 2 ? area : valid, &rng,
                             1 + static_cast<int>(rng.NextBounded(8)));
    const int flips = static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips && !doc.empty(); ++f) {
      doc[rng.NextBounded(doc.size())] ^= static_cast<char>(0x80);
    }
    ExpectSameVarintVerdict(doc);
  }
  // Every run length 0..7 of continuation bytes at every offset of a
  // 200-byte stream, so runs straddle each word and 64-byte boundary.
  for (size_t len = 0; len < 8; ++len) {
    for (size_t pos = 0; pos + len <= 200; ++pos) {
      std::string doc(200, '\x01');
      for (size_t k = pos; k < pos + len; ++k) doc[k] = '\x81';
      ExpectSameVarintVerdict(doc);
    }
  }
}

TEST(FuzzSmokeTest, ManifestDecoderIsTotal) {
  shard::ShardManifest m;
  m.num_vertices = 6;
  m.num_edges = 4;
  m.shard_begin = {0, 3, 6};
  m.degrees = {1, 1, 0, 2, 0, 0};
  m.new_to_old = {3, 4, 5, 0, 1, 2};
  std::string valid = shard::EncodeManifest(m);
  ASSERT_TRUE(ManifestDecodes(valid));
  FuzzParser([](const std::string& s) { ManifestDecodes(s); }, valid, 44);
  for (size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(ManifestDecodes(valid.substr(0, len)));
  }
  // Single-byte corruption: the manifest CRC must catch every flip.
  Rng rng(45);
  int accepted = 0;
  for (int i = 0; i < 300; ++i) {
    std::string mutated = valid;
    size_t pos = rng.NextBounded(mutated.size());
    char old = mutated[pos];
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 + rng.NextBounded(255)));
    if (mutated[pos] == old) continue;
    if (ManifestDecodes(mutated)) ++accepted;
  }
  EXPECT_EQ(accepted, 0);
}

TEST(FuzzSmokeTest, ManifestRejectsZeroVertices) {
  // Build never emits an empty manifest (it rejects empty graphs), so a
  // num_vertices == 0 manifest is by definition crafted/degenerate; it must
  // not open, or kernels would divide by n = 0 and index empty arrays.
  shard::ShardManifest m;
  m.num_vertices = 0;
  m.num_edges = 0;
  m.shard_begin = {0, 0};
  std::string encoded = shard::EncodeManifest(m);
  EXPECT_FALSE(ManifestDecodes(encoded));
}

TEST(FuzzSmokeTest, ShardedOpenHostileDirectoryFailsCleanly) {
  // On-disk tampering through the full Open/Acquire path: truncated files,
  // flipped bytes, deleted segments. Everything must surface as a Status.
  namespace fs = std::filesystem;
  auto g = CsrGraph::FromEdges(SeedEdges()).ValueOrDie();
  shard::ShardOptions opts;
  opts.num_shards = 3;
  auto sharded = shard::ShardedCsr::Build(g, opts).ValueOrDie();
  const fs::path dir =
      fs::temp_directory_path() / "ubigraph_fuzz_sharded_open";
  fs::remove_all(dir);
  ASSERT_TRUE(sharded.WriteTo(dir.string()).ok());

  auto corrupt_and_open = [&](const char* file, auto&& mutator) {
    const fs::path target = dir / file;
    std::ifstream in(target, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::string corrupted = mutator(bytes);
    {
      std::ofstream out(target, std::ios::binary | std::ios::trunc);
      out.write(corrupted.data(),
                static_cast<std::streamsize>(corrupted.size()));
    }
    shard::ShardOpenOptions oopts;
    oopts.storage = shard::SegmentStorage::kMapped;
    auto opened = shard::ShardedCsr::Open(dir.string(), oopts);
    bool clean_failure = !opened.ok();
    if (opened.ok()) {
      // Header probes can pass; the load-time verification must then fail.
      for (uint32_t s = 0; s < opened->num_shards(); ++s) {
        if (!opened->AcquireShard(s).ok()) clean_failure = true;
      }
    }
    // Restore for the next case.
    std::ofstream out(target, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return clean_failure;
  };

  EXPECT_TRUE(corrupt_and_open("manifest.ugsm", [](std::string b) {
    return b.substr(0, b.size() / 2);  // truncated manifest
  }));
  EXPECT_TRUE(corrupt_and_open("segment_00001.ugsg", [](std::string b) {
    return b.substr(0, b.size() - 5);  // truncated segment
  }));
  EXPECT_TRUE(corrupt_and_open("segment_00001.ugsg", [](std::string b) {
    b[70] = static_cast<char>(b[70] ^ 0x40);  // payload flip -> CRC
    return b;
  }));
  EXPECT_TRUE(corrupt_and_open("segment_00002.ugsg", [](std::string b) {
    b[4] = 9;  // version skew
    return b;
  }));
  EXPECT_TRUE(corrupt_and_open("segment_00000.ugsg", [](std::string b) {
    (void)b;
    return std::string("not a segment at all");
  }));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ubigraph
