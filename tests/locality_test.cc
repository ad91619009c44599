// Differential tests for the memory-locality layer: every reordering pass and
// the compressed-CSR backend must give results identical to the plain-CSR
// baseline — bitwise for PageRank scores (after inverse-permutation), exact
// labels for BFS/CC — at 1/2/4/8 threads. Bitwise float claims lean on two
// invariants pinned here: Permute preserves each vertex's relative neighbor
// order (same gather association), and the test graphs are dangling-free (a
// ring through every vertex), so the dangling-mass sum is exactly 0.0 in any
// summation order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "algorithms/connected_components.h"
#include "algorithms/pagerank.h"
#include "algorithms/traversal.h"
#include "common/random.h"
#include "gen/generators.h"
#include "graph/compressed_csr.h"
#include "graph/csr_graph.h"
#include "graph/ordering.h"

namespace ubigraph {
namespace {

constexpr uint32_t kThreadCounts[] = {1, 2, 4, 8};
constexpr OrderingKind kAllKinds[] = {
    OrderingKind::kOriginal, OrderingKind::kDegreeDescending,
    OrderingKind::kRcm, OrderingKind::kHubCluster};

/// Directed RMAT (2^scale vertices, 8 edges per vertex) plus a ring through
/// every vertex: no dangling vertices, one strongly-reachable component from
/// any root, in-edge index built, sorted adjacency.
CsrGraph DanglingFreeRmat(uint32_t scale) {
  Rng rng(scale * 7919ULL + 23);
  EdgeList el =
      gen::Rmat(scale, static_cast<uint64_t>(8) << scale, &rng).ValueOrDie();
  const VertexId n = el.num_vertices();
  for (VertexId v = 0; v < n; ++v) el.Add(v, (v + 1) % n);
  CsrOptions opts;
  opts.build_in_edges = true;
  return CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
}

/// Renumbers component labels by first appearance so partitions computed on
/// differently-ordered graphs compare exactly.
std::vector<uint32_t> CanonLabels(const std::vector<uint32_t>& label) {
  std::vector<uint32_t> dense(label.size(), UINT32_MAX), out(label.size());
  uint32_t next = 0;
  for (size_t v = 0; v < label.size(); ++v) {
    if (dense[label[v]] == UINT32_MAX) dense[label[v]] = next++;
    out[v] = dense[label[v]];
  }
  return out;
}

TEST(OrderingTest, AllKindsAreBijections) {
  CsrGraph g = DanglingFreeRmat(9);
  for (OrderingKind kind : kAllKinds) {
    std::vector<VertexId> perm = MakeOrdering(g, kind);
    ASSERT_EQ(perm.size(), g.num_vertices()) << OrderingKindName(kind);
    EXPECT_TRUE(ValidatePermutation(perm, g.num_vertices()).ok())
        << OrderingKindName(kind);
  }
}

TEST(OrderingTest, DegreeDescendingPacksHubsFirst) {
  CsrGraph g = DanglingFreeRmat(9);
  std::vector<VertexId> perm = DegreeDescendingOrder(g);
  std::vector<VertexId> new_to_old = InversePermutation(perm);
  auto hot = [&](VertexId v) { return g.OutDegree(v) + g.InDegree(v); };
  for (size_t nv = 1; nv < new_to_old.size(); ++nv) {
    ASSERT_GE(hot(new_to_old[nv - 1]), hot(new_to_old[nv])) << nv;
  }
}

TEST(OrderingTest, HubClusterKeepsIdOrderWithinBucket) {
  CsrGraph g = DanglingFreeRmat(9);
  std::vector<VertexId> perm = HubClusterOrder(g);
  std::vector<VertexId> new_to_old = InversePermutation(perm);
  auto hot = [&](VertexId v) { return g.OutDegree(v) + g.InDegree(v); };
  auto bucket = [&](VertexId v) {
    uint64_t d = hot(v);
    return d == 0 ? 0 : 64 - __builtin_clzll(d) + 1;
  };
  for (size_t nv = 1; nv < new_to_old.size(); ++nv) {
    const VertexId a = new_to_old[nv - 1], b = new_to_old[nv];
    // Buckets are hot-to-cold; within a bucket original ids ascend.
    ASSERT_GE(bucket(a), bucket(b)) << nv;
    if (bucket(a) == bucket(b)) ASSERT_LT(a, b) << nv;
  }
}

TEST(OrderingTest, InversePermutationRoundTrip) {
  CsrGraph g = DanglingFreeRmat(8);
  std::vector<VertexId> perm = RcmOrder(g);
  std::vector<VertexId> inv = InversePermutation(perm);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(inv[perm[v]], v);
  }
  // UnpermuteValues moves values back to original slots exactly.
  std::vector<double> values(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) values[v] = v * 1.5;
  std::vector<double> permuted(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) permuted[perm[v]] = values[v];
  EXPECT_EQ(UnpermuteValues<double>(inv, permuted), values);
}

TEST(OrderingTest, ValidatePermutationRejectsBadInput) {
  EXPECT_FALSE(ValidatePermutation(std::vector<VertexId>{0, 1}, 3).ok());
  EXPECT_FALSE(ValidatePermutation(std::vector<VertexId>{0, 0, 1}, 3).ok());
  EXPECT_FALSE(ValidatePermutation(std::vector<VertexId>{0, 1, 3}, 3).ok());
  EXPECT_TRUE(ValidatePermutation(std::vector<VertexId>{2, 0, 1}, 3).ok());
}

TEST(PermuteTest, PreservesAdjacencyOrderAndWeights) {
  CsrGraph g = DanglingFreeRmat(8);
  std::vector<VertexId> perm = DegreeDescendingOrder(g);
  PermutedCsr p = g.Permute(perm).ValueOrDie();
  ASSERT_EQ(p.graph.num_vertices(), g.num_vertices());
  ASSERT_EQ(p.graph.num_edges(), g.num_edges());
  EXPECT_EQ(p.new_to_old, InversePermutation(perm));
  // Stable relabel: new vertex perm[u]'s neighbors are perm[old neighbors]
  // in the old order, weights riding along untouched.
  EXPECT_FALSE(p.graph.neighbors_sorted());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    auto old_n = g.OutNeighbors(u);
    auto new_n = p.graph.OutNeighbors(perm[u]);
    ASSERT_EQ(old_n.size(), new_n.size()) << u;
    for (size_t i = 0; i < old_n.size(); ++i) {
      ASSERT_EQ(new_n[i], perm[old_n[i]]) << u << " " << i;
    }
    auto old_w = g.OutWeights(u);
    auto new_w = p.graph.OutWeights(perm[u]);
    ASSERT_TRUE(std::equal(old_w.begin(), old_w.end(), new_w.begin())) << u;
    ASSERT_EQ(p.graph.InDegree(perm[u]), g.InDegree(u)) << u;
  }
}

TEST(PermuteTest, ParallelMatchesSerialBitwise) {
  CsrGraph g = DanglingFreeRmat(9);
  std::vector<VertexId> perm = HubClusterOrder(g);
  PermutedCsr serial = g.Permute(perm).ValueOrDie();
  for (uint32_t threads : {2u, 4u, 8u}) {
    PermuteOptions opts;
    opts.num_threads = threads;
    PermutedCsr par = g.Permute(perm, opts).ValueOrDie();
    EXPECT_EQ(par.graph.offsets(), serial.graph.offsets()) << threads;
    EXPECT_EQ(par.graph.targets(), serial.graph.targets()) << threads;
    EXPECT_EQ(par.graph.weights(), serial.graph.weights()) << threads;
    EXPECT_EQ(par.new_to_old, serial.new_to_old) << threads;
  }
}

TEST(PermuteTest, RejectsInvalidPermutation) {
  CsrGraph g = DanglingFreeRmat(8);
  std::vector<VertexId> short_perm(g.num_vertices() - 1, 0);
  EXPECT_FALSE(g.Permute(short_perm).ok());
  std::vector<VertexId> dup(g.num_vertices(), 0);
  EXPECT_FALSE(g.Permute(dup).ok());
}

TEST(PermuteTest, SortNeighborsResorts) {
  CsrGraph g = DanglingFreeRmat(8);
  PermuteOptions opts;
  opts.sort_neighbors = true;
  PermutedCsr p = g.Permute(RcmOrder(g), opts).ValueOrDie();
  EXPECT_TRUE(p.graph.neighbors_sorted());
  for (VertexId v = 0; v < p.graph.num_vertices(); ++v) {
    auto nbrs = p.graph.OutNeighbors(v);
    ASSERT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end())) << v;
  }
}

TEST(LocalityDifferentialTest, PageRankBitwiseUnderPermutation) {
  CsrGraph g = DanglingFreeRmat(9);
  algo::PageRankOptions base_opts;
  base_opts.mode = algo::PageRankMode::kPull;
  base_opts.tolerance = 0.0;  // fixed 20 sweeps: convergence order is moot
  base_opts.max_iterations = 20;
  auto baseline = algo::PageRank(g, base_opts).ValueOrDie();
  for (OrderingKind kind : kAllKinds) {
    PermutedCsr p = g.Permute(MakeOrdering(g, kind)).ValueOrDie();
    for (uint32_t threads : kThreadCounts) {
      algo::PageRankOptions opts = base_opts;
      opts.num_threads = threads;
      auto permuted = algo::PageRank(p.graph, opts).ValueOrDie();
      EXPECT_EQ(UnpermuteValues<double>(p.new_to_old, permuted.scores),
                baseline.scores)
          << OrderingKindName(kind) << " threads=" << threads;
    }
  }
}

TEST(LocalityDifferentialTest, BfsExactUnderPermutation) {
  CsrGraph g = DanglingFreeRmat(9);
  const VertexId root = 3;
  std::vector<uint32_t> baseline = algo::BfsDistances(g, root);
  for (OrderingKind kind : kAllKinds) {
    std::vector<VertexId> perm = MakeOrdering(g, kind);
    PermutedCsr p = g.Permute(perm).ValueOrDie();
    for (uint32_t threads : kThreadCounts) {
      algo::BfsOptions bopts;
      bopts.num_threads = threads;
      EXPECT_EQ(UnpermuteValues<uint32_t>(
                    p.new_to_old,
                    algo::BfsDistances(p.graph, perm[root], bopts)),
                baseline)
          << OrderingKindName(kind) << " threads=" << threads;
      algo::HybridBfsOptions hopts;
      hopts.num_threads = threads;
      EXPECT_EQ(
          UnpermuteValues<uint32_t>(
              p.new_to_old,
              algo::HybridBfs(p.graph, perm[root], hopts).ValueOrDie()),
          baseline)
          << OrderingKindName(kind) << " threads=" << threads;
    }
  }
}

TEST(LocalityDifferentialTest, ConnectedComponentsExactUnderPermutation) {
  // A disconnected graph makes the label comparison meaningful: two RMAT
  // blocks with disjoint vertex ranges plus per-block rings.
  Rng rng(101);
  EdgeList el = gen::Rmat(8, 8 << 8, &rng).ValueOrDie();
  const VertexId half = el.num_vertices();
  EdgeList shifted = gen::Rmat(8, 8 << 8, &rng).ValueOrDie();
  for (const Edge& e : shifted.edges()) el.Add(e.src + half, e.dst + half);
  for (VertexId v = 0; v < half; ++v) {
    el.Add(v, (v + 1) % half);
    el.Add(half + v, half + (v + 1) % half);
  }
  CsrOptions copts;
  copts.build_in_edges = true;
  CsrGraph g = CsrGraph::FromEdges(std::move(el), copts).ValueOrDie();

  auto baseline = algo::WeaklyConnectedComponents(g);
  std::vector<uint32_t> canon_base = CanonLabels(baseline.label);
  for (OrderingKind kind : kAllKinds) {
    PermutedCsr p = g.Permute(MakeOrdering(g, kind)).ValueOrDie();
    auto wcc = algo::WeaklyConnectedComponents(p.graph);
    EXPECT_EQ(wcc.num_components, baseline.num_components)
        << OrderingKindName(kind);
    EXPECT_EQ(CanonLabels(UnpermuteValues<uint32_t>(p.new_to_old, wcc.label)),
              canon_base)
        << OrderingKindName(kind);
    for (uint32_t threads : kThreadCounts) {
      for (bool frontier : {false, true}) {
        algo::ComponentsOptions opts;
        opts.num_threads = threads;
        opts.use_frontier = frontier;
        auto cc = algo::ConnectedComponentsLabelProp(p.graph, opts).ValueOrDie();
        EXPECT_EQ(cc.num_components, baseline.num_components)
            << OrderingKindName(kind) << " threads=" << threads;
        EXPECT_EQ(CanonLabels(UnpermuteValues<uint32_t>(p.new_to_old, cc.label)),
                  canon_base)
            << OrderingKindName(kind) << " threads=" << threads
            << " frontier=" << frontier;
      }
    }
  }
}

TEST(CompressedCsrTest, DecodesExactNeighborLists) {
  CsrGraph g = DanglingFreeRmat(9);
  CompressedCsrGraph c = CompressedCsrGraph::FromCsr(g).ValueOrDie();
  ASSERT_EQ(c.num_vertices(), g.num_vertices());
  ASSERT_EQ(c.num_edges(), g.num_edges());
  ASSERT_TRUE(c.has_in_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(c.OutDegree(v), g.OutDegree(v)) << v;
    auto want = g.OutNeighbors(v);
    std::vector<VertexId> got;
    for (VertexId u : c.OutNeighbors(v)) got.push_back(u);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << v;
    ASSERT_EQ(c.InDegree(v), g.InDegree(v)) << v;
    auto want_in = g.InNeighbors(v);
    got.clear();
    for (VertexId u : c.InNeighbors(v)) got.push_back(u);
    ASSERT_TRUE(
        std::equal(got.begin(), got.end(), want_in.begin(), want_in.end()))
        << v;
  }
}

TEST(CompressedCsrTest, AdjacencyUnderSixtyPercentOfPlain) {
  Rng rng(12 * 9176ULL + 3);
  CsrGraph g = CsrGraph::FromEdges(
                   gen::Rmat(12, static_cast<uint64_t>(8) << 12, &rng)
                       .ValueOrDie(),
                   CsrOptions{})
                   .ValueOrDie();
  CompressedCsrGraph c = CompressedCsrGraph::FromCsr(g).ValueOrDie();
  const double plain = static_cast<double>(sizeof(VertexId));
  EXPECT_LE(c.AdjacencyBytesPerEdge(), 0.6 * plain)
      << "compressed " << c.AdjacencyBytesPerEdge() << " B/edge vs plain "
      << plain;
  EXPECT_GT(c.index_bytes(), c.adjacency_bytes());
}

TEST(CompressedCsrTest, RequiresSortedAdjacency) {
  CsrOptions opts;
  opts.sort_neighbors = false;
  auto g = CsrGraph::FromPairs(3, {{0, 2}, {0, 1}}, opts).ValueOrDie();
  EXPECT_FALSE(CompressedCsrGraph::FromCsr(g).ok());
}

TEST(CompressedCsrTest, RequireInEdgesMatchesSource) {
  auto g = CsrGraph::FromPairs(3, {{0, 1}, {1, 2}}).ValueOrDie();  // no in-index
  CompressedCsrGraph c = CompressedCsrGraph::FromCsr(g).ValueOrDie();
  EXPECT_FALSE(c.has_in_edges());
  EXPECT_FALSE(c.RequireInEdges("test").ok());
  EXPECT_FALSE(algo::HybridBfs(c, 0).ok());  // pull/auto needs in-edges
  algo::HybridBfsOptions push;
  push.direction = algo::TraversalDirection::kPush;
  EXPECT_TRUE(algo::HybridBfs(c, 0, push).ok());
}

TEST(CompressedDifferentialTest, PageRankBitwise) {
  CsrGraph g = DanglingFreeRmat(9);
  CompressedCsrGraph c = CompressedCsrGraph::FromCsr(g).ValueOrDie();
  for (algo::PageRankMode mode :
       {algo::PageRankMode::kPull, algo::PageRankMode::kPush}) {
    for (uint32_t threads : kThreadCounts) {
      algo::PageRankOptions opts;
      opts.mode = mode;
      opts.num_threads = threads;
      opts.tolerance = 0.0;
      opts.max_iterations = 15;
      auto plain = algo::PageRank(g, opts).ValueOrDie();
      auto packed = algo::PageRank(c, opts).ValueOrDie();
      EXPECT_EQ(packed.scores, plain.scores)
          << "mode=" << static_cast<int>(mode) << " threads=" << threads;
    }
  }
}

TEST(CompressedDifferentialTest, BfsExact) {
  CsrGraph g = DanglingFreeRmat(9);
  CompressedCsrGraph c = CompressedCsrGraph::FromCsr(g).ValueOrDie();
  const VertexId root = 3;
  std::vector<uint32_t> baseline = algo::BfsDistances(g, root);
  for (uint32_t threads : kThreadCounts) {
    algo::BfsOptions bopts;
    bopts.num_threads = threads;
    EXPECT_EQ(algo::BfsDistances(c, root, bopts), baseline) << threads;
    for (auto dir : {algo::TraversalDirection::kPush,
                     algo::TraversalDirection::kPull,
                     algo::TraversalDirection::kAuto}) {
      algo::HybridBfsOptions hopts;
      hopts.num_threads = threads;
      hopts.direction = dir;
      EXPECT_EQ(algo::HybridBfs(c, root, hopts).ValueOrDie(), baseline)
          << "threads=" << threads << " dir=" << static_cast<int>(dir);
    }
  }
  VertexId sources[] = {root, 100, 7};
  EXPECT_EQ(algo::MultiSourceBfs(c, sources),
            algo::MultiSourceBfs(g, sources));
}

TEST(CompressedDifferentialTest, ConnectedComponentsExact) {
  CsrGraph g = DanglingFreeRmat(9);
  CompressedCsrGraph c = CompressedCsrGraph::FromCsr(g).ValueOrDie();
  auto baseline = algo::WeaklyConnectedComponents(g);
  auto wcc = algo::WeaklyConnectedComponents(c);
  EXPECT_EQ(wcc.label, baseline.label);
  EXPECT_EQ(wcc.num_components, baseline.num_components);
  for (uint32_t threads : kThreadCounts) {
    for (bool frontier : {false, true}) {
      algo::ComponentsOptions opts;
      opts.num_threads = threads;
      opts.use_frontier = frontier;
      auto a = algo::ConnectedComponentsLabelProp(c, opts).ValueOrDie();
      auto b = algo::ConnectedComponentsLabelProp(g, opts).ValueOrDie();
      EXPECT_EQ(a.label, b.label)
          << "threads=" << threads << " frontier=" << frontier;
    }
  }
}

}  // namespace
}  // namespace ubigraph
