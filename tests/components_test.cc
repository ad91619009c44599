#include <gtest/gtest.h>

#include <algorithm>

#include "algorithms/connected_components.h"
#include "common/random.h"
#include "components_oracle.h"
#include "gen/generators.h"

namespace ubigraph::algo {
namespace {

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));
  EXPECT_TRUE(uf.Union(2, 3));
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_EQ(uf.Find(0), uf.Find(1));
  EXPECT_NE(uf.Find(0), uf.Find(2));
}

TEST(UnionFindTest, TransitiveMerge) {
  UnionFind uf(4);
  uf.Union(0, 1);
  uf.Union(1, 2);
  uf.Union(2, 3);
  EXPECT_EQ(uf.num_sets(), 1u);
  EXPECT_EQ(uf.Find(0), uf.Find(3));
}

TEST(WccTest, TwoIslands) {
  auto g = CsrGraph::FromPairs(5, {{0, 1}, {2, 3}}).ValueOrDie();
  ComponentResult cc = WeaklyConnectedComponents(g);
  EXPECT_EQ(cc.num_components, 3u);  // {0,1} {2,3} {4}
  EXPECT_EQ(cc.label[0], cc.label[1]);
  EXPECT_EQ(cc.label[2], cc.label[3]);
  EXPECT_NE(cc.label[0], cc.label[2]);
  EXPECT_NE(cc.label[4], cc.label[0]);
}

TEST(WccTest, DirectionIgnored) {
  auto g = CsrGraph::FromPairs(3, {{1, 0}, {1, 2}}).ValueOrDie();
  ComponentResult cc = WeaklyConnectedComponents(g);
  EXPECT_EQ(cc.num_components, 1u);
}

TEST(WccTest, LabelsAreDenseAndOrdered) {
  auto g = CsrGraph::FromPairs(6, {{4, 5}, {0, 1}}).ValueOrDie();
  ComponentResult cc = WeaklyConnectedComponents(g);
  // Labels assigned by smallest member: comp of 0 gets label 0.
  EXPECT_EQ(cc.label[0], 0u);
  EXPECT_EQ(cc.label[2], 1u);
  std::vector<uint64_t> sizes = cc.ComponentSizes();
  uint64_t total = 0;
  for (uint64_t s : sizes) total += s;
  EXPECT_EQ(total, g.num_vertices());
}

TEST(WccTest, AgreesWithBfsVariant) {
  Rng rng(42);
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng local(seed + 100);
    auto el = gen::ErdosRenyi(80, 100, &local).ValueOrDie();
    CsrOptions opts;
    opts.build_in_edges = true;
    CsrGraph g = CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
    ComponentResult a = WeaklyConnectedComponents(g);
    ComponentResult b = oracle::ConnectedComponentsBfs(g).ValueOrDie();
    EXPECT_EQ(a.num_components, b.num_components);
    EXPECT_EQ(a.label, b.label);  // both order by smallest member
  }
}

TEST(WccTest, LargestComponent) {
  auto g = CsrGraph::FromPairs(6, {{0, 1}, {1, 2}, {4, 5}}).ValueOrDie();
  ComponentResult cc = WeaklyConnectedComponents(g);
  EXPECT_EQ(cc.LargestComponent(), cc.label[0]);
  EXPECT_EQ(cc.ComponentSizes()[cc.LargestComponent()], 3u);
}

TEST(SccTest, CycleIsOneComponent) {
  auto g = CsrGraph::FromPairs(3, {{0, 1}, {1, 2}, {2, 0}}).ValueOrDie();
  ComponentResult scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 1u);
}

TEST(SccTest, DagIsAllSingletons) {
  auto g = CsrGraph::FromPairs(4, {{0, 1}, {1, 2}, {2, 3}}).ValueOrDie();
  ComponentResult scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 4u);
}

TEST(SccTest, TwoCyclesJoinedByBridge) {
  // Cycle {0,1,2} -> bridge -> cycle {3,4}.
  auto g = CsrGraph::FromPairs(
               5, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 3}})
               .ValueOrDie();
  ComponentResult scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 2u);
  EXPECT_EQ(scc.label[0], scc.label[1]);
  EXPECT_EQ(scc.label[3], scc.label[4]);
  EXPECT_NE(scc.label[0], scc.label[3]);
}

TEST(SccTest, TarjanLabelsAreReverseTopological) {
  // Edges between SCCs must go from higher label to lower label.
  Rng rng(5);
  auto el = gen::ErdosRenyi(60, 180, &rng).ValueOrDie();
  CsrGraph g = CsrGraph::FromEdges(std::move(el)).ValueOrDie();
  ComponentResult scc = StronglyConnectedComponents(g);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.OutNeighbors(u)) {
      if (scc.label[u] != scc.label[v]) {
        EXPECT_GT(scc.label[u], scc.label[v]);
      }
    }
  }
}

TEST(SccTest, SelfLoopSingleVertex) {
  auto g = CsrGraph::FromPairs(2, {{0, 0}, {0, 1}}).ValueOrDie();
  ComponentResult scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 2u);
}

// Oracle: brute-force SCC via reachability.
TEST(SccTest, MatchesBruteForceOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed + 50);
    auto el = gen::ErdosRenyi(25, 60, &rng).ValueOrDie();
    CsrGraph g = CsrGraph::FromEdges(std::move(el)).ValueOrDie();
    const VertexId n = g.num_vertices();
    // Floyd-Warshall reachability.
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (VertexId u = 0; u < n; ++u) {
      reach[u][u] = true;
      for (VertexId v : g.OutNeighbors(u)) reach[u][v] = true;
    }
    for (VertexId k = 0; k < n; ++k) {
      for (VertexId i = 0; i < n; ++i) {
        if (!reach[i][k]) continue;
        for (VertexId j = 0; j < n; ++j) {
          if (reach[k][j]) reach[i][j] = true;
        }
      }
    }
    ComponentResult scc = StronglyConnectedComponents(g);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = 0; v < n; ++v) {
        bool same = scc.label[u] == scc.label[v];
        bool mutually = reach[u][v] && reach[v][u];
        EXPECT_EQ(same, mutually) << "u=" << u << " v=" << v << " seed=" << seed;
      }
    }
  }
}

TEST(SingletonTest, FindsIsolatedVertices) {
  auto g = CsrGraph::FromPairs(5, {{1, 2}}).ValueOrDie();
  auto singles = SingletonVertices(g);
  EXPECT_EQ(singles, (std::vector<VertexId>{0, 3, 4}));
}

TEST(SingletonTest, NoneInConnectedGraph) {
  CsrOptions opts;
  opts.directed = false;
  CsrGraph g = CsrGraph::FromEdges(gen::Cycle(6), opts).ValueOrDie();
  EXPECT_TRUE(SingletonVertices(g).empty());
}

class WccScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(WccScaleTest, ComponentCountMatchesUnionCount) {
  Rng rng(GetParam());
  auto el = gen::ErdosRenyi(200, 50 * GetParam(), &rng).ValueOrDie();
  CsrGraph g = CsrGraph::FromEdges(std::move(el)).ValueOrDie();
  ComponentResult cc = WeaklyConnectedComponents(g);
  UnionFind uf(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.OutNeighbors(u)) uf.Union(u, v);
  }
  EXPECT_EQ(cc.num_components, uf.num_sets());
}

INSTANTIATE_TEST_SUITE_P(Densities, WccScaleTest, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace ubigraph::algo
