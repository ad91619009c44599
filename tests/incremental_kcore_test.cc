// Incremental k-core maintenance vs. the batch decomposition oracle.
#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/kcore.h"
#include "algorithms/pagerank.h"
#include "common/random.h"
#include "gen/generators.h"
#include "stream/incremental_kcore.h"

namespace ubigraph::stream {
namespace {

std::vector<uint32_t> BatchCores(const IncrementalKCore& inc) {
  auto g = CsrGraph::FromEdges(inc.Snapshot()).ValueOrDie();
  auto cores = algo::CoreDecomposition(g);
  cores.resize(inc.num_vertices(), 0);  // snapshot may have fewer vertices
  return cores;
}

TEST(IncrementalKCoreTest, TrianglePlusPendant) {
  IncrementalKCore inc(4);
  ASSERT_TRUE(inc.InsertEdge(0, 1).ok());
  ASSERT_TRUE(inc.InsertEdge(1, 2).ok());
  EXPECT_EQ(inc.CoreNumber(1), 1u);
  ASSERT_TRUE(inc.InsertEdge(2, 0).ok());  // closes the triangle
  EXPECT_EQ(inc.CoreNumber(0), 2u);
  EXPECT_EQ(inc.CoreNumber(1), 2u);
  EXPECT_EQ(inc.CoreNumber(2), 2u);
  ASSERT_TRUE(inc.InsertEdge(0, 3).ok());  // pendant
  EXPECT_EQ(inc.CoreNumber(3), 1u);
  EXPECT_EQ(inc.CoreNumber(0), 2u);
  EXPECT_EQ(inc.Degeneracy(), 2u);
}

TEST(IncrementalKCoreTest, RejectsBadEdges) {
  IncrementalKCore inc(3);
  EXPECT_TRUE(inc.InsertEdge(0, 0).IsInvalid());
  EXPECT_TRUE(inc.InsertEdge(0, 9).IsOutOfRange());
  ASSERT_TRUE(inc.InsertEdge(0, 1).ok());
  EXPECT_TRUE(inc.InsertEdge(1, 0).IsAlreadyExists());
  EXPECT_TRUE(inc.RemoveEdge(1, 2).IsNotFound());
}

TEST(IncrementalKCoreTest, GrowingCliqueTracksExactly) {
  IncrementalKCore inc(8);
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = u + 1; v < 8; ++v) {
      ASSERT_TRUE(inc.InsertEdge(u, v).ok());
      EXPECT_EQ(inc.core_numbers(), BatchCores(inc))
          << "after inserting (" << u << "," << v << ")";
    }
  }
  EXPECT_EQ(inc.Degeneracy(), 7u);
  // Each read after an insert peels once; Degeneracy reads fresh cores.
  EXPECT_EQ(inc.full_rebuilds(), 28u);
}

class IncrementalKCoreRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalKCoreRandomTest, MatchesBatchAfterEveryInsertion) {
  Rng rng(GetParam());
  IncrementalKCore inc(40);
  int inserted = 0;
  while (inserted < 250) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(40));
    VertexId v = static_cast<VertexId>(rng.NextBounded(40));
    if (u == v) continue;
    Status s = inc.InsertEdge(u, v);
    if (s.IsAlreadyExists()) continue;
    ASSERT_TRUE(s.ok());
    ++inserted;
    if (inserted % 10 == 0) {
      ASSERT_EQ(inc.core_numbers(), BatchCores(inc))
          << "seed=" << GetParam() << " after " << inserted << " insertions";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalKCoreRandomTest,
                         ::testing::Values(301, 302, 303, 304, 305, 306));

TEST(IncrementalKCoreTest, DeletionsRepairLocallyByDefault) {
  // Single-edge calls are lazy: loading the graph peels nothing, and each
  // read after a deletion peels once.
  Rng rng(9);
  IncrementalKCore inc(20);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (int i = 0; i < 80; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(20));
    VertexId v = static_cast<VertexId>(rng.NextBounded(20));
    if (u != v && inc.InsertEdge(u, v).ok()) edges.emplace_back(u, v);
  }
  ASSERT_GE(edges.size(), 10u);
  EXPECT_EQ(inc.full_rebuilds(), 0u);
  for (int i = 0; i < 5; ++i) {
    auto [u, v] = edges[static_cast<size_t>(i) * 2];
    ASSERT_TRUE(inc.RemoveEdge(u, v).ok());
    EXPECT_EQ(inc.core_numbers(), BatchCores(inc)) << "after deletion " << i;
  }
  EXPECT_EQ(inc.full_rebuilds(), 5u);
}

TEST(IncrementalKCoreTest, DeletionsFallBackToRebuildWhenRepairDisabled) {
  // The same deletions as one-delta batches: every batch peels exactly once
  // and reports it, the first absorbing the lazily loaded edges too.
  Rng rng(9);
  IncrementalKCore inc(20);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (int i = 0; i < 80; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(20));
    VertexId v = static_cast<VertexId>(rng.NextBounded(20));
    if (u != v && inc.InsertEdge(u, v).ok()) edges.emplace_back(u, v);
  }
  ASSERT_GE(edges.size(), 10u);
  for (int i = 0; i < 5; ++i) {
    auto [u, v] = edges[static_cast<size_t>(i) * 2];
    const auto res =
        inc.ApplyBatch(std::vector<GraphDelta>{GraphDelta::Remove(u, v)})
            .ValueOrDie();
    EXPECT_EQ(res.full_rebuilds, 1u);
    EXPECT_EQ(res.vertices_reactivated, 20u);
    EXPECT_EQ(res.edges_rerelaxed, 2 * inc.num_edges());
    EXPECT_EQ(inc.core_numbers(), BatchCores(inc)) << "after deletion " << i;
  }
  EXPECT_EQ(inc.full_rebuilds(), 5u);
  // An empty batch on fresh cores has nothing to peel.
  EXPECT_EQ(inc.ApplyBatch({}).ValueOrDie().full_rebuilds, 0u);
  EXPECT_EQ(inc.full_rebuilds(), 5u);
}

TEST(IncrementalKCoreTest, MixedWorkloadStaysExact) {
  Rng rng(17);
  IncrementalKCore inc(30);
  std::vector<std::pair<VertexId, VertexId>> live;
  for (int step = 0; step < 300; ++step) {
    bool remove = !live.empty() && rng.NextBool(0.2);
    if (remove) {
      size_t at = rng.NextBounded(live.size());
      auto [u, v] = live[at];
      ASSERT_TRUE(inc.RemoveEdge(u, v).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(at));
    } else {
      VertexId u = static_cast<VertexId>(rng.NextBounded(30));
      VertexId v = static_cast<VertexId>(rng.NextBounded(30));
      if (u == v) continue;
      if (inc.InsertEdge(u, v).ok()) live.emplace_back(u, v);
    }
    if (step % 25 == 0) {
      ASSERT_EQ(inc.core_numbers(), BatchCores(inc)) << "step " << step;
    }
  }
}

TEST(HitsSmokeTest, AuthorityOnBipartiteStar) {
  // Many hubs pointing at one authority.
  EdgeList el(6);
  for (VertexId hub = 1; hub <= 5; ++hub) el.Add(hub, 0);
  CsrOptions opts;
  opts.build_in_edges = true;
  auto g = CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
  auto r = algo::Hits(g).ValueOrDie();
  EXPECT_TRUE(r.converged);
  // Vertex 0 is the sole authority; the others are pure hubs.
  EXPECT_NEAR(r.authority[0], 1.0, 1e-6);
  for (VertexId hub = 1; hub <= 5; ++hub) {
    EXPECT_NEAR(r.authority[hub], 0.0, 1e-6);
    EXPECT_NEAR(r.hub[hub], 1.0 / std::sqrt(5.0), 1e-6);
  }
  EXPECT_NEAR(r.hub[0], 0.0, 1e-6);
}

TEST(HitsSmokeTest, RequiresInEdgesAndNonEmpty) {
  auto empty = CsrGraph::FromEdges(EdgeList{}).ValueOrDie();
  EXPECT_FALSE(algo::Hits(empty).ok());
  auto g = CsrGraph::FromEdges(gen::Path(3)).ValueOrDie();
  EXPECT_FALSE(algo::Hits(g).ok());
}

TEST(HitsSmokeTest, ScoresNormalized) {
  Rng rng(5);
  CsrOptions opts;
  opts.build_in_edges = true;
  auto g = CsrGraph::FromEdges(gen::ErdosRenyi(50, 250, &rng).ValueOrDie(), opts)
               .ValueOrDie();
  auto r = algo::Hits(g).ValueOrDie();
  double hub_norm = 0, auth_norm = 0;
  for (VertexId v = 0; v < 50; ++v) {
    hub_norm += r.hub[v] * r.hub[v];
    auth_norm += r.authority[v] * r.authority[v];
  }
  EXPECT_NEAR(hub_norm, 1.0, 1e-9);
  EXPECT_NEAR(auth_norm, 1.0, 1e-9);
}

}  // namespace
}  // namespace ubigraph::stream
