// Failure-injection smoke tests: every parser in the library is fed random
// garbage and randomly mutated valid documents. The contract under test is
// totality — parsers must return ok() or an error Status, never crash,
// hang, or corrupt memory. (Run under ASan in CI-like setups.)
#include <gtest/gtest.h>

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

std::string ValidSegmentBlob(shard::SegmentEncoding encoding) {
  auto g = CsrGraph::FromEdges(SeedEdges()).ValueOrDie();
  std::vector<uint64_t> local(g.num_vertices() + 1);
  for (VertexId v = 0; v <= g.num_vertices(); ++v) local[v] = g.offsets()[v];
  return shard::EncodeSegment(0, 1, g.num_vertices(), 0, g.num_vertices(),
                              local, g.targets(), encoding);
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
  // Targeted header tampering with the CRC re-stamped, so each corruption
  // reaches its own structural check rather than dying at the checksum.
  std::string valid = ValidSegmentBlob(shard::SegmentEncoding::kPlain);
  auto tamper = [&](size_t offset, uint64_t value, size_t width) {
    std::string doc = valid;
    std::memcpy(doc.data() + offset, &value, width);
    uint32_t crc = Crc32(doc.data(), doc.size() - sizeof(uint32_t));
    std::memcpy(doc.data() + doc.size() - sizeof(uint32_t), &crc, sizeof crc);
    return doc;
  };
  EXPECT_FALSE(SegmentDecodes(tamper(0, 0x58585858u, 4), true));  // bad magic
  EXPECT_FALSE(SegmentDecodes(tamper(4, 999, 4), true));   // version skew
  EXPECT_FALSE(SegmentDecodes(tamper(8, 0xffu, 4), true)); // unknown flags
  EXPECT_FALSE(SegmentDecodes(tamper(24, 50, 8), true));   // begin > end
  EXPECT_FALSE(SegmentDecodes(tamper(32, 1u << 20, 8), true));  // end > V
  EXPECT_FALSE(SegmentDecodes(tamper(40, 1u << 30, 8), true));  // edges lie
  EXPECT_FALSE(SegmentDecodes(tamper(48, 8, 8), true));   // payload_bytes lie
  // Shrinking num_vertices below the largest target id must trip the
  // deep id-range check under verify.
  EXPECT_FALSE(SegmentDecodes(tamper(20, 2, 4), true));
  // Unsigned-wrap attack: num_edges = 2^62 + E makes num_edges * 4 wrap u64
  // back to the true payload size, so a product-based size check would pass
  // and the target-id verify loop (or, under verify=false, kernels indexing
  // through 2^62-scale offsets) would read far out of bounds. Stamping the
  // header field alone is caught by offsets[count] != num_edges, so the full
  // exploit also stamps the last row offset to the wrapped value; the
  // decoder must derive the edge count from the payload by division to
  // reject it. Both verify modes — the CRC is re-stamped, so only the
  // structural check stands between this header and UB.
  uint64_t true_edges = 0, vertex_begin = 0, vertex_end = 0;
  std::memcpy(&vertex_begin, valid.data() + 24, sizeof vertex_begin);
  std::memcpy(&vertex_end, valid.data() + 32, sizeof vertex_end);
  std::memcpy(&true_edges, valid.data() + 40, sizeof true_edges);
  const uint64_t wrapped = (uint64_t{1} << 62) + true_edges;
  const size_t last_offset_pos =
      sizeof(shard::SegmentHeader) + (vertex_end - vertex_begin) * 8;
  auto wrap_both = [&](bool verify) {
    std::string doc = tamper(40, wrapped, 8);
    std::memcpy(doc.data() + last_offset_pos, &wrapped, sizeof wrapped);
    uint32_t crc = Crc32(doc.data(), doc.size() - sizeof(uint32_t));
    std::memcpy(doc.data() + doc.size() - sizeof(uint32_t), &crc, sizeof crc);
    return SegmentDecodes(doc, verify);
  };
  EXPECT_FALSE(SegmentDecodes(tamper(40, wrapped, 8), true));
  EXPECT_FALSE(SegmentDecodes(tamper(40, wrapped, 8), false));
  EXPECT_FALSE(wrap_both(true));
  EXPECT_FALSE(wrap_both(false));
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
