// Differential integration tests for the observability subsystem: enabling
// instrumentation must not change any kernel's output (bitwise), and the
// counters the kernels flush must match ground truth computed independently
// from the graph (e.g. BFS edges relaxed == sum of reached out-degrees).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <vector>

#include "algorithms/pagerank.h"
#include "algorithms/traversal.h"
#include "common/parallel.h"
#include "common/random.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "io/edge_list_io.h"
#include "obs/metrics.h"
#include "query/cypher_executor.h"

namespace ubigraph {
namespace {

using obs::MetricsRegistry;

class ObsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    MetricsRegistry::Global().set_enabled(true);
  }
  void TearDown() override { MetricsRegistry::Global().set_enabled(true); }

  static int64_t CounterValue(const char* name) {
    return MetricsRegistry::Global().GetCounter(name)->Value();
  }
};

CsrGraph TestGraph(uint32_t scale, bool in_edges) {
  Rng rng(7);
  EdgeList el = gen::Rmat(scale, uint64_t{8} << scale, &rng).ValueOrDie();
  CsrOptions opts;
  opts.build_in_edges = in_edges;
  return CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
}

TEST_F(ObsIntegrationTest, PageRankScoresAreBitwiseIdenticalWithObsOnAndOff) {
  CsrGraph g = TestGraph(10, /*in_edges=*/true);
  algo::PageRankOptions opts;
  opts.max_iterations = 30;
  opts.tolerance = 0;

  MetricsRegistry::Global().set_enabled(false);
  auto off = algo::PageRank(g, opts).ValueOrDie();
  MetricsRegistry::Global().set_enabled(true);
  auto on = algo::PageRank(g, opts).ValueOrDie();

  EXPECT_EQ(on.iterations, off.iterations);
  EXPECT_EQ(on.converged, off.converged);
  ASSERT_EQ(on.scores.size(), off.scores.size());
  EXPECT_EQ(std::memcmp(on.scores.data(), off.scores.data(),
                        on.scores.size() * sizeof(double)),
            0);
}

TEST_F(ObsIntegrationTest, ParallelPageRankUnchangedByInstrumentation) {
  CsrGraph g = TestGraph(10, /*in_edges=*/true);
  algo::PageRankOptions opts;
  opts.max_iterations = 20;
  opts.tolerance = 0;
  opts.num_threads = 4;

  MetricsRegistry::Global().set_enabled(false);
  auto off = algo::PageRank(g, opts).ValueOrDie();
  MetricsRegistry::Global().set_enabled(true);
  auto on = algo::PageRank(g, opts).ValueOrDie();

  ASSERT_EQ(on.scores.size(), off.scores.size());
  EXPECT_EQ(std::memcmp(on.scores.data(), off.scores.data(),
                        on.scores.size() * sizeof(double)),
            0);
}

TEST_F(ObsIntegrationTest, PageRankCountersMatchRunParameters) {
  CsrGraph g = TestGraph(9, /*in_edges=*/true);
  algo::PageRankOptions opts;
  opts.max_iterations = 17;
  opts.tolerance = 0;  // run the full iteration budget
  auto result = algo::PageRank(g, opts).ValueOrDie();

  EXPECT_EQ(CounterValue("pagerank.runs"), 1);
  EXPECT_EQ(CounterValue("pagerank.iterations"), result.iterations);
  // Pull-based power iteration traverses every in-edge once per iteration.
  EXPECT_EQ(CounterValue("pagerank.edges_relaxed"),
            static_cast<int64_t>(result.iterations) *
                static_cast<int64_t>(g.num_edges()));
  EXPECT_EQ(MetricsRegistry::Global()
                .GetHistogram("pagerank.latency_us")
                ->Merge()
                .count,
            1);
}

TEST_F(ObsIntegrationTest, DisabledRegistryRecordsNothing) {
  CsrGraph g = TestGraph(8, /*in_edges=*/true);
  MetricsRegistry::Global().set_enabled(false);
  algo::PageRank(g).ValueOrDie();
  MetricsRegistry::Global().set_enabled(true);
  EXPECT_EQ(CounterValue("pagerank.runs"), 0);
  EXPECT_EQ(CounterValue("pagerank.iterations"), 0);
}

TEST_F(ObsIntegrationTest, BfsDistancesIdenticalAndCountersMatchGroundTruth) {
  CsrGraph g = TestGraph(10, /*in_edges=*/false);

  MetricsRegistry::Global().set_enabled(false);
  std::vector<uint32_t> off = algo::BfsDistances(g, 0);
  MetricsRegistry::Global().set_enabled(true);
  std::vector<uint32_t> dist = algo::BfsDistances(g, 0);
  EXPECT_EQ(dist, off);

  // Ground truth recomputed from the distance array: a level-synchronous BFS
  // relaxes every out-edge of every reached vertex exactly once.
  int64_t visited = 0;
  int64_t edges_relaxed = 0;
  uint32_t max_depth = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (dist[v] == algo::kUnreachable) continue;
    ++visited;
    edges_relaxed += static_cast<int64_t>(g.OutDegree(v));
    max_depth = std::max(max_depth, dist[v]);
  }
  EXPECT_EQ(CounterValue("bfs.runs"), 1);
  EXPECT_EQ(CounterValue("bfs.vertices_visited"), visited);
  EXPECT_EQ(CounterValue("bfs.edges_relaxed"), edges_relaxed);
  EXPECT_EQ(CounterValue("bfs.rounds"), max_depth + 1);
  // One frontier-size sample per BFS level.
  EXPECT_EQ(MetricsRegistry::Global()
                .GetHistogram("bfs.frontier_size")
                ->Merge()
                .count,
            max_depth + 1);
}

TEST_F(ObsIntegrationTest, ParallelBfsIdenticalWithObsOnAndOff) {
  CsrGraph g = TestGraph(10, /*in_edges=*/false);
  algo::BfsOptions opts;
  opts.num_threads = 4;
  MetricsRegistry::Global().set_enabled(false);
  std::vector<uint32_t> off = algo::BfsDistances(g, 0, opts);
  MetricsRegistry::Global().set_enabled(true);
  std::vector<uint32_t> on = algo::BfsDistances(g, 0, opts);
  EXPECT_EQ(on, off);

  // The parallel path runs the hybrid engine's push direction, but reports
  // only the bfs.* counters, derived from the distances exactly as on the
  // serial path; bfs.hybrid.* belongs to HybridBfs callers alone.
  int64_t edges_relaxed = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (on[v] != algo::kUnreachable) {
      edges_relaxed += static_cast<int64_t>(g.OutDegree(v));
    }
  }
  EXPECT_EQ(CounterValue("bfs.runs"), 1);
  EXPECT_EQ(CounterValue("bfs.edges_relaxed"), edges_relaxed);
  EXPECT_EQ(CounterValue("bfs.hybrid.runs"), 0);
  EXPECT_EQ(CounterValue("bfs.hybrid.edges_scanned"), 0);
}

TEST_F(ObsIntegrationTest, ThreadPoolAccountsForEverySubmittedTask) {
  // A pool task is one thread's share of a fork: each of the 16 forks runs
  // on min(4, TeamSize()) threads, the caller's own share included.
  for (int i = 0; i < 16; ++i) {
    ForkJoin(4, [](unsigned) {
      volatile uint64_t x = 0;
      for (int k = 0; k < 10000; ++k) x = x + k;
    });
  }
  int64_t submitted = CounterValue("pool.tasks_submitted");
  int64_t completed = CounterValue("pool.tasks_completed");
  EXPECT_EQ(submitted, 16 * static_cast<int64_t>(std::min(4u, TeamSize())));
  EXPECT_EQ(completed, submitted);
  EXPECT_GT(CounterValue("pool.busy_ns"), 0);
}

TEST_F(ObsIntegrationTest, IoParserFlushesBytesAndRecords) {
  const std::string text = "0 1\n1 2\n2 0\n";
  auto el = io::ParseEdgeListText(text).ValueOrDie();
  EXPECT_EQ(el.num_edges(), 3u);
  EXPECT_EQ(CounterValue("io.edge_list.bytes"),
            static_cast<int64_t>(text.size()));
  EXPECT_EQ(CounterValue("io.edge_list.records"), 3);
  EXPECT_EQ(CounterValue("io.edge_list.parse_errors"), 0);

  EXPECT_FALSE(io::ParseEdgeListText("0 not-a-vertex\n").ok());
  EXPECT_EQ(CounterValue("io.edge_list.parse_errors"), 1);
}

TEST_F(ObsIntegrationTest, EdgeListFileFlushesWhatItsTextFlushes) {
  // Over 1 MiB, so the file streams through the chunked parse.
  Rng rng(3);
  const std::string text = io::WriteEdgeListText(
      gen::Rmat(15, uint64_t{8} << 15, &rng).ValueOrDie());
  ASSERT_GT(text.size(), size_t{1} << 20);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ubigraph_obs_edge_list.el").string();
  auto write = [&path](const std::string& doc) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << doc;
  };

  const size_t edges = io::ParseEdgeListText(text).ValueOrDie().num_edges();
  const int64_t bytes = CounterValue("io.edge_list.bytes");
  const int64_t records = CounterValue("io.edge_list.records");
  EXPECT_EQ(bytes, static_cast<int64_t>(text.size()));
  EXPECT_EQ(records, static_cast<int64_t>(edges));

  MetricsRegistry::Global().Reset();
  write(text);
  EXPECT_EQ(io::ReadEdgeListFile(path).ValueOrDie().num_edges(), edges);
  EXPECT_EQ(CounterValue("io.edge_list.bytes"), bytes);
  EXPECT_EQ(CounterValue("io.edge_list.records"), records);
  EXPECT_EQ(CounterValue("io.edge_list.parse_errors"), 0);

  MetricsRegistry::Global().Reset();
  write(text + "1 x\n");
  EXPECT_FALSE(io::ReadEdgeListFile(path).ok());
  EXPECT_EQ(CounterValue("io.edge_list.parse_errors"), 1);
  EXPECT_EQ(CounterValue("io.edge_list.records"), 0);
  std::filesystem::remove(path);
}

TEST_F(ObsIntegrationTest, CypherExecutorCountsRows) {
  PropertyGraph g;
  VertexId a = g.AddVertex("Person");
  VertexId b = g.AddVertex("Person");
  VertexId c = g.AddVertex("Person");
  g.SetVertexProperty(a, "age", static_cast<int64_t>(30)).Abort();
  g.SetVertexProperty(b, "age", static_cast<int64_t>(20)).Abort();
  g.SetVertexProperty(c, "age", static_cast<int64_t>(40)).Abort();
  auto result =
      query::RunCypher(g, "MATCH (p:Person) WHERE p.age > 25 RETURN p")
          .ValueOrDie();
  EXPECT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(CounterValue("cypher.queries"), 1);
  EXPECT_EQ(CounterValue("cypher.rows_returned"), 2);
  EXPECT_EQ(CounterValue("cypher.rows_filtered"), 1);
  // Every Person vertex is a scan candidate.
  EXPECT_GE(CounterValue("cypher.rows_scanned"), 3);
  // Results themselves are independent of instrumentation.
  MetricsRegistry::Global().set_enabled(false);
  auto off = query::RunCypher(g, "MATCH (p:Person) WHERE p.age > 25 RETURN p")
                 .ValueOrDie();
  MetricsRegistry::Global().set_enabled(true);
  EXPECT_EQ(off.rows.size(), result.rows.size());
}

}  // namespace
}  // namespace ubigraph
