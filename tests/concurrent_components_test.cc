// The concurrent union-find behind ConnectedComponentsLabelProp and
// shard::ShardedComponents, run at 1/2/4/8 threads on graphs shaped against
// it: a path whose ids descend along it (every link hooks a fresh root), a
// star whose hub has the largest id (every link contends for one root),
// isolated vertices scattered around a giant component, two equal giants
// (the giant-component sample ties), and a directed graph whose small pieces
// hang off arcs out of giant vertices (the finish pass must link in-arcs).
// Every graph has at least kSerialPassArcs arcs, so the threaded path runs.
// Labels must equal the serial WeaklyConnectedComponents bitwise, the work
// counters must not move with the thread count, and the compressed forest
// must point every vertex at its component's smallest vertex.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/connected_components.h"
#include "common/parallel.h"
#include "common/random.h"
#include "graph/compressed_csr.h"
#include "graph/csr_graph.h"
#include "obs/metrics.h"
#include "shard/shard_kernels.h"
#include "shard/sharded_csr.h"

namespace ubigraph {
namespace {

constexpr uint32_t kThreadCounts[] = {1, 2, 4, 8};
constexpr int kRepeats = 20;
/// Vertices per giant: enough arcs that the parallel path runs.
constexpr VertexId kGiant = static_cast<VertexId>(kSerialPassArcs / 2);

using Pairs = std::vector<std::pair<VertexId, VertexId>>;

CsrGraph Undirected(VertexId n, const Pairs& pairs) {
  CsrOptions opts;
  opts.directed = false;
  return CsrGraph::FromPairs(n, pairs, opts).ValueOrDie();
}

/// A connected random graph on the given vertex ids: a random spanning tree
/// plus as many random extra edges.
void AddConnected(const std::vector<VertexId>& ids, Rng* rng, Pairs* pairs) {
  for (size_t i = 1; i < ids.size(); ++i) {
    pairs->emplace_back(ids[i], ids[rng->NextBounded(i)]);
    pairs->emplace_back(ids[rng->NextBounded(ids.size())],
                        ids[rng->NextBounded(ids.size())]);
  }
}

CsrGraph DescendingPath() {
  const VertexId n = kGiant + 1;
  Pairs pairs;
  for (VertexId v = n - 1; v > 0; --v) pairs.emplace_back(v, v - 1);
  return Undirected(n, pairs);
}

CsrGraph StarWithLargestHub() {
  const VertexId n = kGiant + 1;
  Pairs pairs;
  for (VertexId v = 0; v + 1 < n; ++v) pairs.emplace_back(n - 1, v);
  return Undirected(n, pairs);
}

CsrGraph IsolatedAroundGiant() {
  // Every (n / 10^4)-th id is isolated, the rest form one component.
  constexpr VertexId kIsolated = 10000;
  const VertexId n = kGiant + kIsolated;
  const VertexId stride = n / kIsolated;
  std::vector<VertexId> giant;
  for (VertexId v = 0; v < n; ++v) {
    if (v % stride != 0 || v / stride >= kIsolated) giant.push_back(v);
  }
  Rng rng(1);
  Pairs pairs;
  AddConnected(giant, &rng, &pairs);
  return Undirected(n, pairs);
}

CsrGraph TwoEqualGiants() {
  // Even ids form one giant, odd ids the other, with the same shape.
  std::vector<VertexId> even, odd;
  for (VertexId v = 0; v < 2 * kGiant; v += 2) {
    even.push_back(v);
    odd.push_back(v + 1);
  }
  Rng a(2), b(2);
  Pairs pairs;
  AddConnected(even, &a, &pairs);
  AddConnected(odd, &b, &pairs);
  return Undirected(2 * kGiant, pairs);
}

CsrGraph PiecesBehindGiantArcs() {
  // Giant: v -> v+1 and v -> v+2 (mod kGiant), the first two out-neighbours
  // the sampling pass links. Each piece {a, b} has one arc a -> b and is
  // reached only by an arc g -> a from a giant vertex g, listed after g's two
  // giant neighbours: only a's in-arc joins it to the giant.
  constexpr VertexId kPieces = 1000;
  const VertexId n = kGiant + 2 * kPieces;
  Pairs pairs;
  for (VertexId v = 0; v < kGiant; ++v) {
    pairs.emplace_back(v, (v + 1) % kGiant);
    pairs.emplace_back(v, (v + 2) % kGiant);
  }
  for (VertexId p = 0; p < kPieces; ++p) {
    const VertexId a = kGiant + 2 * p;
    pairs.emplace_back(a, a + 1);
    pairs.emplace_back(p * (kGiant / kPieces), a);
  }
  CsrOptions opts;
  opts.build_in_edges = true;
  return CsrGraph::FromPairs(n, pairs, opts).ValueOrDie();
}

CsrGraph MakeGraph(const std::string& name) {
  if (name == "descending_path") return DescendingPath();
  if (name == "star_largest_hub") return StarWithLargestHub();
  if (name == "isolated_around_giant") return IsolatedAroundGiant();
  if (name == "two_equal_giants") return TwoEqualGiants();
  return PiecesBehindGiantArcs();
}

class ConcurrentComponentsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ConcurrentComponentsTest, LabelsMatchUnionFindAtEveryThreadCount) {
  const CsrGraph g = MakeGraph(GetParam());
  ASSERT_GE(g.num_edges(), kSerialPassArcs);
  const algo::ComponentResult oracle = algo::WeaklyConnectedComponents(g);
  const CompressedCsrGraph compressed =
      CompressedCsrGraph::FromCsr(g).ValueOrDie();
  shard::ShardOptions sopts;
  sopts.num_shards = 8;
  const shard::ShardedCsr sharded =
      shard::ShardedCsr::Build(g, sopts).ValueOrDie();

  int64_t serial_linked = -1;
  for (uint32_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    algo::ComponentsOptions opts;
    opts.num_threads = threads;
    for (int r = 0; r < kRepeats; ++r) {
      const int64_t before = obs::CounterValue("cc.arcs_linked");
      const algo::ComponentResult cc =
          algo::ConnectedComponentsLabelProp(g, opts).ValueOrDie();
      const int64_t linked = obs::CounterValue("cc.arcs_linked") - before;
      ASSERT_EQ(cc.label, oracle.label) << "repeat " << r;
      ASSERT_EQ(cc.num_components, oracle.num_components);
      if (serial_linked < 0) serial_linked = linked;
      ASSERT_EQ(linked, serial_linked) << "repeat " << r;
    }
    EXPECT_EQ(algo::ConnectedComponentsLabelProp(compressed, opts)
                  .ValueOrDie()
                  .label,
              oracle.label);

    shard::ShardedTraversalOptions topts;
    topts.num_threads = threads;
    const int64_t scanned = obs::CounterValue("shard.cc.edges_scanned");
    EXPECT_EQ(shard::ShardedComponents(sharded, topts).ValueOrDie().label,
              oracle.label);
    EXPECT_EQ(obs::CounterValue("shard.cc.edges_scanned") - scanned,
              static_cast<int64_t>(g.num_edges()));
  }
  EXPECT_GT(serial_linked, 0);
}

TEST_P(ConcurrentComponentsTest, CompressedForestPointsAtComponentMinima) {
  // The union-find itself, with no serial cutoff in front: every worker links
  // the out-arcs of an interleaved share of the vertices.
  const CsrGraph g = MakeGraph(GetParam());
  const algo::ComponentResult oracle = algo::WeaklyConnectedComponents(g);
  std::vector<VertexId> smallest(oracle.num_components, g.num_vertices());
  for (VertexId v = g.num_vertices(); v-- > 0;) smallest[oracle.label[v]] = v;
  for (uint32_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    algo::ConcurrentUnionFind uf(g.num_vertices());
    ForkJoin(threads, [&](unsigned w) {
      for (VertexId u = w; u < g.num_vertices(); u += threads) {
        for (VertexId v : g.OutNeighbors(u)) uf.Link(u, v);
      }
    });
    uf.Compress(threads);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(uf.parents()[v], smallest[oracle.label[v]]) << "v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, ConcurrentComponentsTest,
                         ::testing::Values("descending_path",
                                           "star_largest_hub",
                                           "isolated_around_giant",
                                           "two_equal_giants",
                                           "pieces_behind_giant_arcs"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace ubigraph
