// Differential tests for sharded, out-of-core execution (src/shard/): the
// sharded kernels must reproduce the in-RAM kernels bitwise across every
// {threads} x {shards} x {encoding} combination, through both the in-memory
// (Build) and on-disk (WriteTo/Open, resident or mmap'ed under a byte budget)
// paths. See shard_kernels.h for the determinism argument these tests pin.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/connected_components.h"
#include "algorithms/pagerank.h"
#include "algorithms/traversal.h"
#include "common/crc32.h"
#include "common/random.h"
#include "gen/generators.h"
#include "graph/ordering.h"
#include "obs/metrics.h"
#include "shard/shard_kernels.h"
#include "shard/sharded_csr.h"

namespace ubigraph::shard {
namespace {

namespace fs = std::filesystem;

/// Self-cleaning scratch directory, unique per (test, process) so parallel
/// ctest invocations of this binary never collide.
class TempDir {
 public:
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    static int counter = 0;
    std::string name = std::string(info->test_suite_name()) + "_" +
                       info->name() + "_" + std::to_string(getpid()) + "_" +
                       std::to_string(counter++);
    std::replace(name.begin(), name.end(), '/', '_');
    path_ = fs::temp_directory_path() / ("ubigraph_sharded_" + name);
    fs::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// Directed RMAT with dangling vertices, duplicate edges, and skewed degrees
/// — the adversarial shape for the dangling-mass and association arguments.
const CsrGraph& RmatGraph() {
  static const CsrGraph g = [] {
    Rng rng(7);
    auto el = gen::Rmat(9, 4096, &rng).ValueOrDie();
    CsrOptions opts;
    opts.directed = true;
    return CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
  }();
  return g;
}

const CsrGraph& CommunityGraph() {
  static const CsrGraph g = [] {
    Rng rng(11);
    auto el = gen::PlantedPartition(200, 4, 0.3, 0.01, &rng).ValueOrDie();
    CsrOptions opts;
    opts.directed = false;
    return CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
  }();
  return g;
}

constexpr double kTolerance = 1e-10;
constexpr uint32_t kMaxIters = 60;

algo::PageRankResult SerialPushPageRank(const CsrGraph& g) {
  algo::PageRankOptions opts;
  opts.mode = algo::PageRankMode::kPush;
  opts.num_threads = 1;
  opts.tolerance = kTolerance;
  opts.max_iterations = kMaxIters;
  return algo::PageRank(g, opts).ValueOrDie();
}

ShardedPageRankResult RunShardedPageRank(const ShardedCsr& s,
                                         uint32_t threads) {
  ShardedPageRankOptions opts;
  opts.tolerance = kTolerance;
  opts.max_iterations = kMaxIters;
  opts.num_threads = threads;
  return ShardedPageRank(s, opts).ValueOrDie();
}

void ExpectBitwiseEqual(const std::vector<double>& got,
                        const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  // Element-wise first for a readable failure, then the memcmp that makes
  // the "bitwise" claim literal.
  for (size_t v = 0; v < got.size(); ++v) {
    ASSERT_EQ(got[v], want[v]) << "score diverges at vertex " << v;
  }
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0);
}

// ---------------------------------------------------------------------------
// The acceptance matrix: {1,2,4,8} threads x {1,4,16} shards x plain /
// compressed segments, for every partitioner.
// ---------------------------------------------------------------------------

class ShardedMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, uint32_t, SegmentEncoding>> {
 protected:
  uint32_t threads() const { return std::get<0>(GetParam()); }
  ShardOptions Options(ShardPartitioner p) const {
    ShardOptions o;
    o.num_shards = std::get<1>(GetParam());
    o.encoding = std::get<2>(GetParam());
    o.partitioner = p;
    return o;
  }
};

TEST_P(ShardedMatrixTest, ContiguousPageRankBitwiseEqualsSerialPush) {
  const CsrGraph& g = RmatGraph();
  const algo::PageRankResult want = SerialPushPageRank(g);
  auto s = ShardedCsr::Build(g, Options(ShardPartitioner::kContiguous))
               .ValueOrDie();
  const ShardedPageRankResult got = RunShardedPageRank(s, threads());
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.final_delta, want.final_delta);
  ExpectBitwiseEqual(got.scores, want.scores);
}

TEST_P(ShardedMatrixTest, PartitionedPageRankBitwiseEqualsRelabeledAnchor) {
  const CsrGraph& g = RmatGraph();
  for (ShardPartitioner p :
       {ShardPartitioner::kLdg, ShardPartitioner::kBfsGrow}) {
    SCOPED_TRACE(ShardPartitionerName(p));
    auto s = ShardedCsr::Build(g, Options(p)).ValueOrDie();
    // The anchor is serial push PageRank on the SAME relabeled graph the
    // shards encode: permutation association differs from the original graph,
    // but the sharded run must reproduce it exactly at every thread count.
    const std::vector<VertexId> perm = InversePermutation(s.new_to_old());
    PermuteOptions popts;
    popts.sort_neighbors = true;
    const CsrGraph anchor_g =
        std::move(g.Permute(perm, popts).ValueOrDie().graph);
    const algo::PageRankResult want = SerialPushPageRank(anchor_g);
    const ShardedPageRankResult got = RunShardedPageRank(s, threads());
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.final_delta, want.final_delta);
    ASSERT_EQ(got.scores.size(), want.scores.size());
    for (VertexId v = 0; v < want.scores.size(); ++v) {
      // got is indexed by original id; the anchor by relabeled id.
      ASSERT_EQ(got.scores[s.new_to_old()[v]], want.scores[v])
          << "relabeled vertex " << v;
    }
  }
}

TEST_P(ShardedMatrixTest, BfsMatchesInRamDistances) {
  const CsrGraph& g = RmatGraph();
  const std::vector<uint32_t> want = algo::BfsDistances(g, 0);
  for (ShardPartitioner p :
       {ShardPartitioner::kContiguous, ShardPartitioner::kLdg,
        ShardPartitioner::kBfsGrow}) {
    SCOPED_TRACE(ShardPartitionerName(p));
    auto s = ShardedCsr::Build(g, Options(p)).ValueOrDie();
    ShardedTraversalOptions topts;
    topts.num_threads = threads();
    const std::vector<uint32_t> got = ShardedBfs(s, 0, topts).ValueOrDie();
    EXPECT_EQ(got, want);
  }
}

TEST_P(ShardedMatrixTest, ComponentsMatchInRamLabels) {
  const CsrGraph& g = RmatGraph();
  const algo::ComponentResult want = algo::WeaklyConnectedComponents(g);
  for (ShardPartitioner p :
       {ShardPartitioner::kContiguous, ShardPartitioner::kLdg,
        ShardPartitioner::kBfsGrow}) {
    SCOPED_TRACE(ShardPartitionerName(p));
    auto s = ShardedCsr::Build(g, Options(p)).ValueOrDie();
    ShardedTraversalOptions topts;
    topts.num_threads = threads();
    const algo::ComponentResult got =
        ShardedComponents(s, topts).ValueOrDie();
    EXPECT_EQ(got.num_components, want.num_components);
    EXPECT_EQ(got.label, want.label);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ShardedMatrixTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(1u, 4u, 16u),
                       ::testing::Values(SegmentEncoding::kPlain,
                                         SegmentEncoding::kCompressed)),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param)) + "_" +
             SegmentEncodingName(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Undirected graphs (symmetrized CSR) through the same kernels.
// ---------------------------------------------------------------------------

TEST(ShardedUndirectedTest, PageRankAndComponentsMatch) {
  const CsrGraph& g = CommunityGraph();
  const algo::PageRankResult want_pr = SerialPushPageRank(g);
  const algo::ComponentResult want_cc = algo::WeaklyConnectedComponents(g);
  for (SegmentEncoding enc :
       {SegmentEncoding::kPlain, SegmentEncoding::kCompressed}) {
    ShardOptions opts;
    opts.num_shards = 6;
    opts.encoding = enc;
    auto s = ShardedCsr::Build(g, opts).ValueOrDie();
    ExpectBitwiseEqual(RunShardedPageRank(s, 4).scores, want_pr.scores);
    EXPECT_EQ(ShardedComponents(s).ValueOrDie().label, want_cc.label);
  }
}

TEST(ShardedSmallGraphTest, TinyShapes) {
  // Single vertex, no edges.
  auto g1 = CsrGraph::FromPairs(1, {}).ValueOrDie();
  auto s1 = ShardedCsr::Build(g1).ValueOrDie();
  EXPECT_EQ(RunShardedPageRank(s1, 1).scores, std::vector<double>{1.0});
  EXPECT_EQ(ShardedBfs(s1, 0).ValueOrDie(), std::vector<uint32_t>{0});

  // Directed path: more shards than convenient, dangling tail.
  auto g2 =
      CsrGraph::FromPairs(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}).ValueOrDie();
  ShardOptions opts;
  opts.num_shards = 5;
  auto s2 = ShardedCsr::Build(g2, opts).ValueOrDie();
  ExpectBitwiseEqual(RunShardedPageRank(s2, 2).scores,
                     SerialPushPageRank(g2).scores);
  EXPECT_EQ(ShardedBfs(s2, 0).ValueOrDie(), algo::BfsDistances(g2, 0));
  EXPECT_EQ(ShardedComponents(s2).ValueOrDie().label,
            algo::WeaklyConnectedComponents(g2).label);
}

// ---------------------------------------------------------------------------
// On-disk round trip: WriteTo + Open (resident and mmap'ed) reproduce the
// in-memory instance bitwise.
// ---------------------------------------------------------------------------

TEST(ShardedRoundTripTest, WriteOpenReproducesKernelsBitwise) {
  const CsrGraph& g = RmatGraph();
  ShardOptions opts;
  opts.num_shards = 8;
  opts.partitioner = ShardPartitioner::kBfsGrow;
  opts.encoding = SegmentEncoding::kCompressed;
  auto built = ShardedCsr::Build(g, opts).ValueOrDie();
  const ShardedPageRankResult want = RunShardedPageRank(built, 1);
  const std::vector<uint32_t> want_bfs = ShardedBfs(built, 0).ValueOrDie();

  TempDir dir;
  ASSERT_TRUE(built.WriteTo(dir.str()).ok());

  for (SegmentStorage storage :
       {SegmentStorage::kResident, SegmentStorage::kMapped}) {
    ShardOpenOptions oopts;
    oopts.storage = storage;
    auto opened = ShardedCsr::Open(dir.str(), oopts).ValueOrDie();
    EXPECT_EQ(opened.num_vertices(), built.num_vertices());
    EXPECT_EQ(opened.num_edges(), built.num_edges());
    EXPECT_EQ(opened.num_shards(), built.num_shards());
    const ShardedPageRankResult got = RunShardedPageRank(opened, 4);
    EXPECT_EQ(got.iterations, want.iterations);
    ExpectBitwiseEqual(got.scores, want.scores);
    EXPECT_EQ(ShardedBfs(opened, 0).ValueOrDie(), want_bfs);
  }
}

TEST(ShardedOutOfCoreTest, BudgetedCacheStaysPartialAndExact) {
  const CsrGraph& g = RmatGraph();
  ShardOptions opts;
  opts.num_shards = 16;
  opts.encoding = SegmentEncoding::kPlain;
  auto built = ShardedCsr::Build(g, opts).ValueOrDie();
  const ShardedPageRankResult want = RunShardedPageRank(built, 1);

  TempDir dir;
  ASSERT_TRUE(built.WriteTo(dir.str()).ok());

  ShardOpenOptions oopts;
  oopts.storage = SegmentStorage::kMapped;
  oopts.budget_bytes = built.cache().total_bytes() / 3;
  auto opened = ShardedCsr::Open(dir.str(), oopts).ValueOrDie();
  ASSERT_LT(opened.cache().budget_bytes(), opened.cache().total_bytes())
      << "test must exercise true out-of-core execution";

  const ShardedPageRankResult got = RunShardedPageRank(opened, 2);
  ExpectBitwiseEqual(got.scores, want.scores);
  // The cache cycled segments instead of accumulating them all.
  EXPECT_GT(opened.cache().peak_segment_bytes(), 0u);
  EXPECT_LT(opened.cache().peak_segment_bytes(),
            opened.cache().total_bytes());
  EXPECT_EQ(ShardedBfs(opened, 0).ValueOrDie(),
            ShardedBfs(built, 0).ValueOrDie());
  EXPECT_EQ(ShardedComponents(opened).ValueOrDie().label,
            ShardedComponents(built).ValueOrDie().label);
}

// ---------------------------------------------------------------------------
// Work counters: the arcs the kernels report are the arcs they decoded.
// ---------------------------------------------------------------------------

TEST(ShardedWorkCounterTest, ScanCountersCountEveryWorkerDecode) {
  // Each worker decodes only its own columns' blocks, so the scan counters
  // hold still as workers are added: PageRank decodes each arc once per
  // iteration, BFS each frontier arc once, and CC each arc once per call.
  const CsrGraph& g = RmatGraph();
  ShardOptions opts;
  opts.num_shards = 16;
  auto s = ShardedCsr::Build(g, opts).ValueOrDie();
  constexpr uint32_t kIters = 5;
  int64_t bfs_serial = -1;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ShardedPageRankOptions popts;
    popts.tolerance = 0;
    popts.max_iterations = kIters;
    popts.num_threads = threads;
    const int64_t streamed = obs::CounterValue("shard.pagerank.edges_streamed");
    ASSERT_EQ(ShardedPageRank(s, popts).ValueOrDie().iterations, kIters);
    EXPECT_EQ(obs::CounterValue("shard.pagerank.edges_streamed") - streamed,
              static_cast<int64_t>(kIters * g.num_edges()));

    ShardedTraversalOptions topts;
    topts.num_threads = threads;
    const int64_t frontier = obs::CounterValue("shard.bfs.edges_scanned");
    ASSERT_TRUE(ShardedBfs(s, 0, topts).ok());
    const int64_t bfs = obs::CounterValue("shard.bfs.edges_scanned") - frontier;
    if (bfs_serial < 0) bfs_serial = bfs;
    EXPECT_EQ(bfs, bfs_serial);
    EXPECT_GT(bfs, 0);

    const int64_t scanned = obs::CounterValue("shard.cc.edges_scanned");
    ASSERT_TRUE(ShardedComponents(s, topts).ok());
    EXPECT_EQ(obs::CounterValue("shard.cc.edges_scanned") - scanned,
              static_cast<int64_t>(g.num_edges()));
  }
}

// ---------------------------------------------------------------------------
// Kernel errors: a segment that fails verification mid-run surfaces as a
// Status from every kernel, serial and parallel.
// ---------------------------------------------------------------------------

TEST(ShardedKernelErrorTest, CorruptLastSegmentFailsEveryKernel) {
  const CsrGraph& g = RmatGraph();
  ShardOptions opts;
  opts.num_shards = 16;
  auto built = ShardedCsr::Build(g, opts).ValueOrDie();
  TempDir dir;
  ASSERT_TRUE(built.WriteTo(dir.str()).ok());

  // Flip the last payload byte of the LAST segment (the 4 bytes after it are
  // the CRC): the header probe at Open passes, but the first load of that
  // segment fails its checksum — an error raised after the earlier segments
  // were already scanned.
  const fs::path victim = dir.path() / "segment_00015.ugsg";
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    ASSERT_GT(size, 80);
    f.seekg(size - 5);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(size - 5);
    f.write(&byte, 1);
  }

  // Under the contiguous partitioner the last original id lives in the last
  // shard, so BFS acquires the corrupt segment on its first level.
  const VertexId source = g.num_vertices() - 1;
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ShardOpenOptions oopts;
    oopts.storage = SegmentStorage::kMapped;
    auto opened = ShardedCsr::Open(dir.str(), oopts);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    ShardedPageRankOptions popts;
    popts.num_threads = threads;
    ShardedTraversalOptions topts;
    topts.num_threads = threads;
    EXPECT_FALSE(ShardedPageRank(*opened, popts).ok());
    EXPECT_FALSE(ShardedBfs(*opened, source, topts).ok());
    EXPECT_FALSE(ShardedComponents(*opened, topts).ok());
  }
}

TEST(ShardedKernelErrorTest, RewrittenEvictedSegmentFailsCleanly) {
  // Re-loads after eviction skip full verification, so a segment file
  // rewritten in place while evicted — same size, CRC re-stamped — reaches
  // the kernels unverified. Its first entry's id is moved out of the block's
  // column (past the vertex count, for plain ids) or its row past the
  // shard's row count: every kernel must answer with a Status rather than
  // index vertex state with it.
  const CsrGraph& g = RmatGraph();
  for (SegmentEncoding enc :
       {SegmentEncoding::kPlain, SegmentEncoding::kCompressed}) {
    ShardOptions opts;
    opts.num_shards = 16;
    opts.encoding = enc;
    auto built = ShardedCsr::Build(g, opts).ValueOrDie();
    const std::span<const uint8_t> blob =
        built.cache().SerializedBytes(0).ValueOrDie();
    // Segment 0's first non-empty block: varint(header bytes), then its
    // first entry's header — varint row delta (the entry's row), varint
    // count or length — and, after all headers, that entry's ids.
    const uint32_t S = built.num_shards();
    const size_t area = sizeof(SegmentHeader) +
                        (S + 1) * (sizeof(uint64_t) + sizeof(VertexId));
    std::vector<uint64_t> offsets(S + 1);
    std::memcpy(offsets.data(), blob.data() + sizeof(SegmentHeader),
                offsets.size() * sizeof(uint64_t));
    uint32_t t = 0;
    while (offsets[t] == offsets[t + 1]) ++t;
    const size_t block = area + offsets[t];
    ASSERT_LT(blob[block], 0x80);      // one-byte header-stream length
    const size_t entry = block + 1;
    ASSERT_LT(blob[entry], 0x80);      // one-byte row delta
    ASSERT_LT(blob[entry + 1], 0x80);  // one-byte count or length
    const size_t first_id = entry + blob[block];
    const VertexId row = blob[entry];

    for (bool rewrite_row : {false, true}) {
      std::string bytes(blob.begin(), blob.end());
      if (rewrite_row) {
        bytes[entry] = 0x7f;  // row 127 of a 32-row shard
      } else if (enc == SegmentEncoding::kPlain) {
        const VertexId far = 0x7ffffff0;
        std::memcpy(bytes.data() + first_id, &far, sizeof far);
      } else {
        bytes[first_id] = 0x7f;  // column start + 127, past a 32-id column
      }
      const uint32_t crc = Crc32(bytes.data(), bytes.size() - sizeof crc);
      std::memcpy(bytes.data() + bytes.size() - sizeof crc, &crc, sizeof crc);

      for (uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message()
                     << SegmentEncodingName(enc)
                     << (rewrite_row ? " row" : " id") << " threads=" << threads);
        TempDir dir;
        ASSERT_TRUE(built.WriteTo(dir.str()).ok());
        ShardOpenOptions oopts;
        oopts.storage = SegmentStorage::kMapped;
        oopts.budget_bytes = 1;  // every load evicts the unpinned rest
        auto opened = ShardedCsr::Open(dir.str(), oopts).ValueOrDie();
        // Loads and fully verifies every segment; later loads evict 0.
        ASSERT_TRUE(ShardedPageRank(opened).ok());
        {
          std::ofstream out(dir.path() / "segment_00000.ugsg",
                            std::ios::binary | std::ios::trunc);
          out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        }
        ShardedPageRankOptions popts;
        popts.num_threads = threads;
        ShardedTraversalOptions topts;
        topts.num_threads = threads;
        EXPECT_FALSE(ShardedPageRank(opened, popts).ok());
        EXPECT_FALSE(ShardedBfs(opened, row, topts).ok());
        EXPECT_FALSE(ShardedComponents(opened, topts).ok());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Validation and failure paths.
// ---------------------------------------------------------------------------

TEST(ShardedValidationTest, BuildRejectsBadInputs) {
  EXPECT_FALSE(ShardedCsr::Build(CsrGraph()).ok());  // empty graph
  ShardOptions opts;
  opts.num_shards = 0;
  EXPECT_FALSE(ShardedCsr::Build(RmatGraph(), opts).ok());
  opts.num_shards = 70000;
  EXPECT_FALSE(ShardedCsr::Build(RmatGraph(), opts).ok());

  // Compressed segments need sorted rows under the contiguous partitioner.
  Rng rng(3);
  auto el = gen::ErdosRenyi(64, 256, &rng).ValueOrDie();
  CsrOptions copts;
  copts.sort_neighbors = false;
  auto unsorted = CsrGraph::FromEdges(std::move(el), copts).ValueOrDie();
  ShardOptions sopts;
  sopts.encoding = SegmentEncoding::kCompressed;
  EXPECT_FALSE(ShardedCsr::Build(unsorted, sopts).ok());
  // The partitioned path re-sorts during the relabel, so it accepts the
  // same graph.
  sopts.partitioner = ShardPartitioner::kLdg;
  EXPECT_TRUE(ShardedCsr::Build(unsorted, sopts).ok());
}

TEST(ShardedValidationTest, BfsSourceOutOfRangeRejected) {
  auto s = ShardedCsr::Build(CommunityGraph()).ValueOrDie();
  EXPECT_FALSE(ShardedBfs(s, CommunityGraph().num_vertices()).ok());
}

TEST(ShardedValidationTest, OpenMissingDirectoryFails) {
  EXPECT_FALSE(ShardedCsr::Open("/nonexistent/ubigraph_shard_dir").ok());
}

TEST(ShardedValidationTest, ForeignSegmentFileDetected) {
  // A structurally valid segment from a DIFFERENT graph swapped into a
  // directory must be caught by the manifest cross-check, not trusted.
  const CsrGraph& big = RmatGraph();
  auto g_small =
      CsrGraph::FromPairs(64, {{0, 1}, {1, 2}, {5, 9}, {20, 40}}).ValueOrDie();
  ShardOptions opts;
  opts.num_shards = 4;
  auto s_big = ShardedCsr::Build(big, opts).ValueOrDie();
  auto s_small = ShardedCsr::Build(g_small, opts).ValueOrDie();

  TempDir dir_big, dir_small;
  ASSERT_TRUE(s_big.WriteTo(dir_big.str()).ok());
  ASSERT_TRUE(s_small.WriteTo(dir_small.str()).ok());
  fs::copy_file(dir_small.path() / "segment_00001.ugsg",
                dir_big.path() / "segment_00001.ugsg",
                fs::copy_options::overwrite_existing);

  ShardOpenOptions oopts;
  oopts.storage = SegmentStorage::kMapped;
  auto opened = ShardedCsr::Open(dir_big.str(), oopts);
  if (opened.ok()) {
    // Header probe may pass (sizes are self-consistent); the pinned-view
    // cross-check against the manifest must then fail.
    EXPECT_FALSE(opened->AcquireShard(1).ok());
    EXPECT_FALSE(ShardedPageRank(*opened).ok());
  }
}

TEST(ShardedCacheTest, PinBlocksEvictionAndViewsStayValid) {
  const CsrGraph& g = RmatGraph();
  ShardOptions opts;
  opts.num_shards = 8;
  auto built = ShardedCsr::Build(g, opts).ValueOrDie();
  TempDir dir;
  ASSERT_TRUE(built.WriteTo(dir.str()).ok());

  ShardOpenOptions oopts;
  oopts.storage = SegmentStorage::kMapped;
  oopts.budget_bytes = 1;  // smaller than any segment: every load over budget
  auto opened = ShardedCsr::Open(dir.str(), oopts).ValueOrDie();
  auto pin0 = opened.AcquireShard(0).ValueOrDie();
  const SegmentView& v0 = pin0.view();
  EXPECT_EQ(v0.begin, opened.shard_begin(0));
  // Cycling other shards evicts them, never the pinned one.
  for (uint32_t s = 1; s < opened.num_shards(); ++s) {
    auto pin = opened.AcquireShard(s).ValueOrDie();
    EXPECT_EQ(pin.view().begin, opened.shard_begin(s));
  }
  // The pinned view still reads: its blocks rebuild every row's degree.
  std::vector<uint64_t> degree(v0.count(), 0);
  for (uint32_t t = 0; t < v0.num_shards; ++t) {
    ASSERT_TRUE(v0.ScanBlock(t, opened.shard_begin(t),
                             opened.shard_begin(t + 1),
                             [&](VertexId u, auto ids) {
                    for (VertexId v : ids) {
                      (void)v;
                      ++degree[u - v0.begin];
                    }
                  }).ok());
  }
  for (VertexId u = v0.begin; u < v0.end; ++u) {
    EXPECT_EQ(degree[u - v0.begin], opened.degrees()[u]) << u;
  }
}

TEST(ShardedCacheTest, AscendingSweepsKeepAllButOneBudgetedSegment) {
  // Every kernel sweeps segments in ascending order. With a budget that
  // holds k of N segments, evicting the segment a sweep just released keeps
  // k - 1 segments across sweeps, so the second sweep misses at most
  // N - k + 1 times; least-recently-used eviction misses all N. A ring,
  // v -> v+1 and v -> v+2, makes every segment the same size, so the
  // budget holds exactly k.
  constexpr uint32_t kShards = 16, kRows = 64, k = 5;
  constexpr VertexId n = kShards * kRows;
  std::vector<std::pair<VertexId, VertexId>> ring;
  for (VertexId v = 0; v < n; ++v) {
    ring.emplace_back(v, (v + 1) % n);
    ring.emplace_back(v, (v + 2) % n);
  }
  ShardOptions opts;
  opts.num_shards = kShards;
  auto built = ShardedCsr::Build(CsrGraph::FromPairs(n, ring).ValueOrDie(),
                                 opts)
                   .ValueOrDie();
  TempDir dir;
  ASSERT_TRUE(built.WriteTo(dir.str()).ok());
  const uint64_t size = built.cache().SerializedBytes(0).ValueOrDie().size();
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_EQ(built.cache().SerializedBytes(s).ValueOrDie().size(), size);
  }
  ShardOpenOptions oopts;
  oopts.storage = SegmentStorage::kMapped;
  oopts.budget_bytes = k * size;
  auto opened = ShardedCsr::Open(dir.str(), oopts).ValueOrDie();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  auto sweep = [&] {
    const int64_t before = obs::CounterValue("shard.cache.misses");
    for (uint32_t s = 0; s < kShards; ++s) {
      EXPECT_TRUE(opened.AcquireShard(s).ok());
    }
    return obs::CounterValue("shard.cache.misses") - before;
  };
  EXPECT_EQ(sweep(), int64_t{kShards});
  EXPECT_EQ(sweep(), int64_t{kShards - k + 1});
  reg.set_enabled(was_enabled);
}

}  // namespace
}  // namespace ubigraph::shard
