// Cross-kernel randomized differential harness over the corpus layer: every
// kernel family (BFS/hybrid, PageRank modes, connected components, SSSP,
// k-core, Brandes betweenness, and the incremental engines) is swept over
// corpus shapes (RMAT / LFR / bipartite / road) x representations (plain,
// hub-cluster-permuted, compressed CSR) x thread counts 1/2/4/8, and every
// result is checked against a serial oracle computed on the same concrete
// graph.
//
// Oracle placement matters: serial oracles are recomputed per concrete
// representation where the kernel's output is id-sensitive (approx
// betweenness draws pivot *ids* from the Rng, so the same seed names
// different vertices on a permuted graph). Id-invariant quantities (BFS
// depth, core number, component partition, PageRank score, SSSP distance)
// are additionally mapped through the permutation and compared back to the
// plain-graph oracle, which is what catches relabeling bugs.
//
// Equality contract (same as parallel_differential_test.cc):
//   - integer outputs match EXACTLY at every thread count;
//   - Brandes/approx-betweenness doubles are bitwise-identical across thread
//     counts (fixed ParallelReduce chunk tree) and compared with a relative
//     tolerance across representations (different accumulation order);
//   - PageRank / SSSP doubles are compared within a small absolute slack of
//     the oracle (independent IEEE-754 trajectories into the same fixpoint).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "algorithms/centrality.h"
#include "algorithms/connected_components.h"
#include "algorithms/kcore.h"
#include "algorithms/pagerank.h"
#include "algorithms/shortest_path.h"
#include "algorithms/traversal.h"
#include "common/random.h"
#include "corpus_util.h"
#include "graph/compressed_csr.h"
#include "graph/csr_graph.h"
#include "stream/incremental.h"
#include "stream/incremental_components.h"
#include "stream/incremental_kcore.h"
#include "stream/incremental_pagerank.h"
#include "update_stream_util.h"

namespace ubigraph {
namespace {

using test::AllCorpusShapes;
using test::BuildRepresentations;
using test::CorpusEdges;
using test::CorpusRepresentations;
using test::CorpusShape;
using test::CorpusShapeName;
using test::OldToNew;
using test::WeightedCorpusEdges;

constexpr uint64_t kSeed = 20260808;
constexpr uint32_t kThreadCounts[] = {1, 2, 4, 8};
constexpr double kScoreSlack = 1e-9;  // PageRank per-vertex, tolerance 1e-12
constexpr double kDistSlack = 1e-12;  // SSSP per-vertex absolute

/// Highest-out-degree vertex: a deterministic, shape-agnostic BFS/SSSP root
/// that sits inside the giant component on every corpus shape.
VertexId PickRoot(const CsrGraph& g) {
  VertexId best = 0;
  uint64_t best_deg = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const uint64_t d = g.OutDegree(v);
    if (d > best_deg) {
      best_deg = d;
      best = v;
    }
  }
  return best;
}

/// Relative comparison for centrality sums, whose magnitude scales with n^2.
void ExpectNearRel(const std::vector<double>& got,
                   const std::vector<double>& want, double rel,
                   const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t v = 0; v < got.size(); ++v) {
    const double tol = rel * std::max(1.0, std::abs(want[v]));
    EXPECT_NEAR(got[v], want[v], tol) << what << " vertex " << v;
  }
}

class CorpusDifferentialTest : public ::testing::TestWithParam<CorpusShape> {
 protected:
  // Representations are pure functions of (shape, kSeed); build each once
  // per process and share across the TEST_P bodies for that shape.
  static const CorpusRepresentations& Reps(CorpusShape shape) {
    static auto* cache = new std::vector<CorpusRepresentations>{
        BuildRepresentations(CorpusEdges(CorpusShape::kRmat, kSeed)),
        BuildRepresentations(CorpusEdges(CorpusShape::kLfr, kSeed)),
        BuildRepresentations(CorpusEdges(CorpusShape::kBipartite, kSeed)),
        BuildRepresentations(CorpusEdges(CorpusShape::kRoad, kSeed))};
    return (*cache)[static_cast<size_t>(shape)];
  }

  static const CorpusRepresentations& WeightedReps(CorpusShape shape) {
    static auto* cache = new std::vector<CorpusRepresentations>{
        BuildRepresentations(WeightedCorpusEdges(CorpusShape::kRmat, kSeed)),
        BuildRepresentations(WeightedCorpusEdges(CorpusShape::kLfr, kSeed)),
        BuildRepresentations(
            WeightedCorpusEdges(CorpusShape::kBipartite, kSeed)),
        BuildRepresentations(WeightedCorpusEdges(CorpusShape::kRoad, kSeed))};
    return (*cache)[static_cast<size_t>(shape)];
  }
};

TEST_P(CorpusDifferentialTest, BfsMatchesSerialOracleEverywhere) {
  const CorpusRepresentations& reps = Reps(GetParam());
  const VertexId root = PickRoot(reps.plain);
  const std::vector<uint32_t> oracle = algo::BfsDistances(reps.plain, root);

  for (uint32_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    algo::HybridBfsOptions opts;
    opts.num_threads = threads;
    EXPECT_EQ(algo::HybridBfs(reps.plain, root, opts).ValueOrDie(), oracle);
    EXPECT_EQ(algo::HybridBfs(reps.compressed, root, opts).ValueOrDie(),
              oracle);
    EXPECT_EQ(algo::BfsDistances(reps.plain, root, {.num_threads = threads}),
              oracle);
  }
  // Forced directions at one parallel thread count: the switch heuristic must
  // never be what's hiding a divergence.
  for (auto dir :
       {algo::TraversalDirection::kPush, algo::TraversalDirection::kPull}) {
    algo::HybridBfsOptions opts;
    opts.num_threads = 4;
    opts.direction = dir;
    EXPECT_EQ(algo::HybridBfs(reps.plain, root, opts).ValueOrDie(), oracle);
  }
  EXPECT_EQ(algo::BfsDistances(reps.compressed, root), oracle);

  // Permuted graph, mapped back through new_to_old: depth is id-invariant.
  const std::vector<VertexId> old_to_new = OldToNew(reps.permuted);
  const std::vector<uint32_t> perm =
      algo::HybridBfs(reps.permuted.graph, old_to_new[root],
                      {.num_threads = 4})
          .ValueOrDie();
  for (VertexId v = 0; v < reps.plain.num_vertices(); ++v) {
    ASSERT_EQ(perm[old_to_new[v]], oracle[v]) << "old vertex " << v;
  }
}

TEST_P(CorpusDifferentialTest, PageRankModesAgreeOnEveryRepresentation) {
  const CorpusRepresentations& reps = Reps(GetParam());
  algo::PageRankOptions base;
  base.tolerance = 1e-12;
  base.max_iterations = 500;
  base.mode = algo::PageRankMode::kPull;
  const auto oracle = algo::PageRank(reps.plain, base).ValueOrDie();
  ASSERT_TRUE(oracle.converged);

  for (auto mode : {algo::PageRankMode::kPull, algo::PageRankMode::kPush,
                    algo::PageRankMode::kDelta}) {
    for (uint32_t threads : kThreadCounts) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " threads=" + std::to_string(threads));
      algo::PageRankOptions opts = base;
      opts.mode = mode;
      opts.num_threads = threads;
      const auto got = algo::PageRank(reps.plain, opts).ValueOrDie();
      ASSERT_TRUE(got.converged);
      for (VertexId v = 0; v < reps.plain.num_vertices(); ++v) {
        ASSERT_NEAR(got.scores[v], oracle.scores[v], kScoreSlack)
            << "vertex " << v;
      }
    }
  }

  for (uint32_t threads : {1u, 4u}) {
    algo::PageRankOptions opts = base;
    opts.num_threads = threads;
    const auto got = algo::PageRank(reps.compressed, opts).ValueOrDie();
    ASSERT_TRUE(got.converged);
    for (VertexId v = 0; v < reps.plain.num_vertices(); ++v) {
      ASSERT_NEAR(got.scores[v], oracle.scores[v], kScoreSlack)
          << "compressed threads=" << threads << " vertex " << v;
    }
  }

  // Scores are id-invariant: the permuted run mapped back must land on the
  // same fixpoint (different summation order, hence slack not bitwise).
  const std::vector<VertexId> old_to_new = OldToNew(reps.permuted);
  const auto perm = algo::PageRank(reps.permuted.graph, base).ValueOrDie();
  ASSERT_TRUE(perm.converged);
  for (VertexId v = 0; v < reps.plain.num_vertices(); ++v) {
    ASSERT_NEAR(perm.scores[old_to_new[v]], oracle.scores[v], kScoreSlack)
        << "permuted vertex " << v;
  }
}

TEST_P(CorpusDifferentialTest, ComponentsAgreeAcrossRepresentations) {
  const CorpusRepresentations& reps = Reps(GetParam());
  const algo::ComponentResult oracle =
      algo::WeaklyConnectedComponents(reps.plain);

  for (uint32_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    algo::ComponentsOptions opts;
    opts.num_threads = threads;
    const auto lp =
        algo::ConnectedComponentsLabelProp(reps.plain, opts).ValueOrDie();
    EXPECT_EQ(lp.num_components, oracle.num_components);
    EXPECT_EQ(lp.label, oracle.label);
    EXPECT_EQ(algo::ConnectedComponentsLabelProp(reps.compressed, opts).ValueOrDie().label,
              oracle.label);
  }

  const auto compressed_uf = algo::WeaklyConnectedComponents(reps.compressed);
  EXPECT_EQ(compressed_uf.label, oracle.label);

  // Permuted labels differ in value (canonical labels are id-derived) but
  // must induce the identical partition: same component count, and two old
  // vertices share an oracle label iff their images share a permuted label.
  const std::vector<VertexId> old_to_new = OldToNew(reps.permuted);
  const auto perm = algo::WeaklyConnectedComponents(reps.permuted.graph);
  ASSERT_EQ(perm.num_components, oracle.num_components);
  std::vector<uint32_t> seen_as(oracle.num_components, UINT32_MAX);
  std::vector<uint8_t> target_used(perm.num_components, 0);
  for (VertexId v = 0; v < reps.plain.num_vertices(); ++v) {
    const uint32_t o = oracle.label[v];
    const uint32_t p = perm.label[old_to_new[v]];
    if (seen_as[o] == UINT32_MAX) {
      ASSERT_LT(p, target_used.size());
      ASSERT_FALSE(target_used[p]) << "two oracle components map to permuted "
                                   << "component " << p;
      seen_as[o] = p;
      target_used[p] = 1;
    } else {
      ASSERT_EQ(seen_as[o], p) << "old vertex " << v << " left its component";
    }
  }
}

TEST_P(CorpusDifferentialTest, KCoreMatchesSerialOracle) {
  const CorpusRepresentations& reps = Reps(GetParam());
  const std::vector<uint32_t> oracle = algo::CoreDecomposition(reps.plain);

  for (uint32_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(algo::CoreDecomposition(reps.plain, {.num_threads = threads}),
              oracle);
    EXPECT_EQ(
        algo::CoreDecomposition(reps.compressed, {.num_threads = threads}),
        oracle);
  }
  EXPECT_EQ(algo::CoreDecomposition(reps.compressed), oracle);

  const std::vector<VertexId> old_to_new = OldToNew(reps.permuted);
  const std::vector<uint32_t> perm =
      algo::CoreDecomposition(reps.permuted.graph, {.num_threads = 4});
  for (VertexId v = 0; v < reps.plain.num_vertices(); ++v) {
    ASSERT_EQ(perm[old_to_new[v]], oracle[v]) << "old vertex " << v;
  }
}

TEST_P(CorpusDifferentialTest, SsspMatchesDijkstraOracle) {
  const CorpusRepresentations& reps = WeightedReps(GetParam());
  const VertexId root = PickRoot(reps.plain);
  const auto oracle = algo::Dijkstra(reps.plain, root).ValueOrDie();

  auto expect_same_distances = [&](const std::vector<double>& got,
                                   const std::string& what) {
    ASSERT_EQ(got.size(), oracle.distance.size()) << what;
    for (VertexId v = 0; v < got.size(); ++v) {
      if (std::isinf(oracle.distance[v])) {
        ASSERT_TRUE(std::isinf(got[v])) << what << " vertex " << v;
      } else {
        ASSERT_NEAR(got[v], oracle.distance[v], kDistSlack)
            << what << " vertex " << v;
      }
    }
  };

  for (uint32_t threads : kThreadCounts) {
    const auto delta =
        algo::DeltaSteppingSssp(reps.plain, root, {.num_threads = threads})
            .ValueOrDie();
    expect_same_distances(delta.distance,
                          "delta threads=" + std::to_string(threads));
  }

  // Permuted graph carries the same weights through the relabeling; both the
  // serial and parallel kernels mapped back must reproduce the oracle.
  // (No compressed leg: the SSSP kernels are CsrGraph-only.)
  const std::vector<VertexId> old_to_new = OldToNew(reps.permuted);
  const VertexId perm_root = old_to_new[root];
  for (const auto& run :
       {algo::Dijkstra(reps.permuted.graph, perm_root),
        algo::DeltaSteppingSssp(reps.permuted.graph, perm_root,
                                {.num_threads = 4})}) {
    const auto& tree = run.ValueOrDie();
    std::vector<double> mapped(tree.distance.size());
    for (VertexId v = 0; v < mapped.size(); ++v) {
      mapped[v] = tree.distance[old_to_new[v]];
    }
    expect_same_distances(mapped, "permuted sssp");
  }
}

TEST_P(CorpusDifferentialTest, BetweennessAgreesAcrossThreadsAndReps) {
  const CorpusRepresentations& reps = Reps(GetParam());

  // Exact Brandes: bitwise across thread counts (fixed reduce tree), and the
  // compressed graph shares vertex ids so it must land on the same sums.
  const std::vector<double> exact =
      algo::BetweennessCentrality(reps.plain, {.num_threads = 1});
  EXPECT_EQ(algo::BetweennessCentrality(reps.plain, {.num_threads = 4}), exact);
  ExpectNearRel(algo::BetweennessCentrality(reps.compressed), exact, 1e-9,
                "compressed exact brandes");

  // Permuted: betweenness is id-invariant, accumulation order is not.
  const std::vector<VertexId> old_to_new = OldToNew(reps.permuted);
  const std::vector<double> perm = algo::BetweennessCentrality(
      reps.permuted.graph, {.num_threads = 4});
  std::vector<double> mapped(perm.size());
  for (VertexId v = 0; v < mapped.size(); ++v) {
    mapped[v] = perm[old_to_new[v]];
  }
  ExpectNearRel(mapped, exact, 1e-9, "permuted exact brandes");

  // Approx betweenness: the pivot list is drawn serially from the seed, so
  // on the SAME graph a fixed seed is bitwise-stable at every thread count.
  // (Not across the permutation — the same seed names different vertex ids
  // there, which is exactly why each representation gets its own oracle.)
  Rng oracle_rng(99);
  const std::vector<double> approx =
      algo::ApproxBetweennessCentrality(reps.plain, 16, &oracle_rng);
  for (uint32_t threads : {2u, 4u, 8u}) {
    Rng rng(99);
    EXPECT_EQ(algo::ApproxBetweennessCentrality(reps.plain, 16, &rng,
                                                {.num_threads = threads}),
              approx)
        << "threads=" << threads;
  }
  Rng compressed_rng(99);
  ExpectNearRel(
      algo::ApproxBetweennessCentrality(reps.compressed, 16, &compressed_rng),
      approx, 1e-9, "compressed approx betweenness");
}

TEST_P(CorpusDifferentialTest, IncrementalEnginesMatchRecomputeOnStreams) {
  // Drive the three incremental engines with an update stream derived from
  // this corpus shape and check every batch against full recomputes on the
  // live edge set (same contract as incremental_differential_test.cc, here
  // exercised on the corpus shapes rather than hand-picked generators).
  const EdgeList base = CorpusEdges(GetParam(), kSeed);
  test::UpdateStreamGen gen(base, kSeed ^ 0xabcdef, {});
  const EdgeList init = gen.InitialEdges();
  ASSERT_GT(init.num_edges(), 0u);

  auto pagerank =
      stream::IncrementalPageRank::Create(
          init, stream::IncrementalPageRank::Options{.tolerance = 1e-12,
                                                     .max_sweeps = 500,
                                                     .num_threads = 2})
          .ValueOrDie();
  ASSERT_TRUE(pagerank.initial_result().converged);
  auto components =
      stream::IncrementalComponents::Create(init, {.num_threads = 4})
          .ValueOrDie();
  stream::IncrementalKCore kcore(init.num_vertices(), {.num_threads = 2});
  for (const Edge& e : init.edges()) {
    ASSERT_TRUE(kcore.InsertEdge(e.src, e.dst).ok());
  }

  for (size_t b = 0; b < 3; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const std::vector<GraphDelta> batch =
        gen.NextBatch(test::StreamKind::kMixed, 48);
    ASSERT_TRUE(pagerank.ApplyBatch(batch).ok());
    ASSERT_TRUE(components.ApplyBatch(batch).ok());
    ASSERT_TRUE(kcore.ApplyBatch(batch).ok());

    const EdgeList live = gen.LiveEdges();
    if (live.num_edges() == 0) break;

    auto live_pr = CsrGraph::FromEdges(EdgeList(live),
                                       CsrOptions{.build_in_edges = true})
                       .ValueOrDie();
    algo::PageRankOptions pr_opts;
    pr_opts.tolerance = 1e-12;
    pr_opts.max_iterations = 500;
    pr_opts.mode = algo::PageRankMode::kPull;
    const auto oracle_pr = algo::PageRank(live_pr, pr_opts).ValueOrDie();
    const std::vector<double>& scores = pagerank.scores();
    for (VertexId v = 0; v < init.num_vertices(); ++v) {
      ASSERT_NEAR(scores[v], oracle_pr.scores[v], 1e-10) << "vertex " << v;
    }

    auto live_cc = CsrGraph::FromEdges(EdgeList(live)).ValueOrDie();
    EXPECT_EQ(components.Labels(),
              algo::WeaklyConnectedComponents(live_cc).label);
    EXPECT_EQ(components.num_components(),
              algo::WeaklyConnectedComponents(live_cc).num_components);

    auto live_kc =
        CsrGraph::FromEdges(EdgeList(live), CsrOptions{.directed = false})
            .ValueOrDie();
    EXPECT_EQ(kcore.core_numbers(), algo::CoreDecomposition(live_kc));
  }
}

INSTANTIATE_TEST_SUITE_P(AllShapes, CorpusDifferentialTest,
                         ::testing::ValuesIn(AllCorpusShapes()),
                         [](const ::testing::TestParamInfo<CorpusShape>& info) {
                           return std::string(CorpusShapeName(info.param));
                         });

}  // namespace
}  // namespace ubigraph
