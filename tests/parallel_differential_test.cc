// Differential serial-vs-parallel tests: every parallelized kernel must
// reproduce the serial seed implementation's output at 2/4/8 threads on
// RMAT, Erdős–Rényi, and star/chain edge-case graphs — exactly for BFS
// depths, component labels, and triangle counts; within tolerance for
// PageRank scores (plus a bitwise-determinism check at a fixed thread
// count, courtesy of the deterministic tree reduction).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "algorithms/connected_components.h"
#include "algorithms/pagerank.h"
#include "algorithms/traversal.h"
#include "algorithms/triangle.h"
#include "common/random.h"
#include "gen/generators.h"

namespace ubigraph::algo {
namespace {

constexpr uint32_t kThreadCounts[] = {2, 4, 8};

/// The graph corpus: name + CSR with in-edges built (the superset of what
/// the four kernels need).
std::vector<std::pair<std::string, CsrGraph>> TestGraphs() {
  std::vector<std::pair<std::string, CsrGraph>> graphs;
  CsrOptions opts;
  opts.build_in_edges = true;

  Rng rmat_rng(7);
  graphs.emplace_back(
      "rmat10", CsrGraph::FromEdges(gen::Rmat(10, 8192, &rmat_rng).ValueOrDie(),
                                    opts)
                    .ValueOrDie());

  Rng er_rng(11);
  graphs.emplace_back(
      "erdos_renyi",
      CsrGraph::FromEdges(gen::ErdosRenyi(2000, 10000, &er_rng).ValueOrDie(),
                          opts)
          .ValueOrDie());

  graphs.emplace_back("star",
                      CsrGraph::FromEdges(gen::Star(2000), opts).ValueOrDie());
  graphs.emplace_back("chain",
                      CsrGraph::FromEdges(gen::Path(3000), opts).ValueOrDie());

  // Undirected variant exercises the aliased in-edge index.
  CsrOptions undirected;
  undirected.directed = false;
  Rng er2_rng(13);
  graphs.emplace_back(
      "erdos_renyi_undirected",
      CsrGraph::FromEdges(gen::ErdosRenyi(1500, 6000, &er2_rng).ValueOrDie(),
                          undirected)
          .ValueOrDie());
  return graphs;
}

TEST(ParallelDifferentialTest, BfsDistancesMatchSerialExactly) {
  for (const auto& [name, g] : TestGraphs()) {
    std::vector<uint32_t> serial = BfsDistances(g, 0);
    for (uint32_t threads : kThreadCounts) {
      BfsOptions opts;
      opts.num_threads = threads;
      EXPECT_EQ(BfsDistances(g, 0, opts), serial)
          << name << " threads=" << threads;
    }
  }
}

TEST(ParallelDifferentialTest, MultiSourceBfsMatchesSerialExactly) {
  for (const auto& [name, g] : TestGraphs()) {
    // A spread of sources, including a duplicate and an out-of-range id.
    std::vector<VertexId> sources = {0, g.num_vertices() / 2,
                                     g.num_vertices() - 1, 0,
                                     g.num_vertices() + 100};
    std::vector<uint32_t> serial = MultiSourceBfs(g, sources);
    for (uint32_t threads : kThreadCounts) {
      BfsOptions opts;
      opts.num_threads = threads;
      EXPECT_EQ(MultiSourceBfs(g, sources, opts), serial)
          << name << " threads=" << threads;
    }
  }
}

TEST(ParallelDifferentialTest, ComponentsMatchUnionFindExactly) {
  for (const auto& [name, g] : TestGraphs()) {
    ComponentResult serial_uf = WeaklyConnectedComponents(g);
    ComponentResult serial_lp = ConnectedComponentsLabelProp(g).ValueOrDie();
    // The serial path already matches union-find labels.
    ASSERT_EQ(serial_lp.label, serial_uf.label) << name;
    ASSERT_EQ(serial_lp.num_components, serial_uf.num_components) << name;
    for (uint32_t threads : kThreadCounts) {
      ComponentsOptions opts;
      opts.num_threads = threads;
      ComponentResult parallel = ConnectedComponentsLabelProp(g, opts).ValueOrDie();
      EXPECT_EQ(parallel.label, serial_uf.label)
          << name << " threads=" << threads;
      EXPECT_EQ(parallel.num_components, serial_uf.num_components)
          << name << " threads=" << threads;
    }
  }
}

TEST(ParallelDifferentialTest, TriangleCountsMatchSerialExactly) {
  for (const auto& [name, g] : TestGraphs()) {
    uint64_t serial = CountTriangles(g);
    for (uint32_t threads : kThreadCounts) {
      TriangleCountOptions opts;
      opts.num_threads = threads;
      EXPECT_EQ(CountTriangles(g, opts), serial)
          << name << " threads=" << threads;
    }
  }
}

TEST(ParallelDifferentialTest, PageRankScoresWithinToleranceOfSerial) {
  for (const auto& [name, g] : TestGraphs()) {
    PageRankOptions base;
    base.max_iterations = 50;
    base.tolerance = 1e-12;
    PageRankResult serial = PageRank(g, base).ValueOrDie();
    for (uint32_t threads : kThreadCounts) {
      PageRankOptions opts = base;
      opts.num_threads = threads;
      PageRankResult parallel = PageRank(g, opts).ValueOrDie();
      ASSERT_EQ(parallel.scores.size(), serial.scores.size());
      // Scores differ from the serial sum only by reduction rounding, far
      // below the convergence tolerance.
      for (size_t v = 0; v < serial.scores.size(); ++v) {
        ASSERT_NEAR(parallel.scores[v], serial.scores[v], 1e-10)
            << name << " threads=" << threads << " vertex=" << v;
      }
    }
  }
}

TEST(ParallelDifferentialTest, PageRankIsBitwiseDeterministicPerThreadCount) {
  for (const auto& [name, g] : TestGraphs()) {
    for (uint32_t threads : {1u, 4u}) {
      PageRankOptions opts;
      opts.max_iterations = 30;
      opts.tolerance = 0;  // fixed iteration count
      opts.num_threads = threads;
      PageRankResult a = PageRank(g, opts).ValueOrDie();
      PageRankResult b = PageRank(g, opts).ValueOrDie();
      ASSERT_EQ(a.scores.size(), b.scores.size());
      ASSERT_EQ(std::memcmp(a.scores.data(), b.scores.data(),
                            a.scores.size() * sizeof(double)),
                0)
          << name << " threads=" << threads;
    }
  }
}

TEST(ParallelDifferentialTest, ZeroMeansHardwareConcurrency) {
  // num_threads = 0 must resolve and agree with the serial result, whatever
  // the host's core count is.
  auto g = CsrGraph::FromEdges(gen::Star(500)).ValueOrDie();
  BfsOptions opts;
  opts.num_threads = 0;
  EXPECT_EQ(BfsDistances(g, 0, opts), BfsDistances(g, 0));
  TriangleCountOptions tri;
  tri.num_threads = 0;
  EXPECT_EQ(CountTriangles(g, tri), CountTriangles(g));
}

}  // namespace
}  // namespace ubigraph::algo
